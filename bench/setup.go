package main

import (
	"fmt"
	"math"
	"time"

	"sinan/internal/apps"
	"sinan/internal/collect"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/lifecycle"
	"sinan/internal/predsvc"
)

// scale sizes one benchmark invocation. The workload definitions (apps,
// load patterns, simulated seconds per run) are the same at every scale
// except smoke, which exists only so the tests can drive the whole program
// in a few seconds.
type scale struct {
	CollectSec  float64 // simulated seconds of bandit collection in set-up
	SetupEpochs int     // CNN epochs of the set-up model
	Setups      int     // set-ups per untraced invocation (setup_s is their median)

	SocialSec, HotelSec float64 // simulated seconds per managed run
	Warmup              float64 // simulated seconds excluded from the QoS meter
	TrainEpochs         int     // CNN epochs of one social_train run

	Rounds       int // untraced rounds when no time budget is given
	TracedRounds int // traced rounds when no time budget is given

	SimEvents   int     // timer events of the sim probe
	ClusterSec  float64 // simulated seconds per cluster probe
	HarnessSec  float64 // simulated seconds per run of the harness probe
	ReplayReps  int     // replays per captured query in the predict probes
	MatMulReps  int     // repetitions per GEMM shape
	MaxCaptured int     // model queries captured for the replay probes
}

// The set-up is deliberately smaller than experiments.NewLab's (6000 s,
// 12 epochs, ~25 s): every invocation pays for it three times so that
// setup_s is a median, and the driver makes ~90 invocations under a fixed
// wall-clock cap. 1200 simulated seconds and 3 epochs still give a model
// that drives the scheduler through the paper's loop (a model query in
// roughly two intervals out of three, ~170 candidates per query).
var defaultScale = scale{
	CollectSec: 1200, SetupEpochs: 3, Setups: 3,
	SocialSec: 600, HotelSec: 300, Warmup: 20, TrainEpochs: 4,
	Rounds: 8, TracedRounds: 2,
	SimEvents: 1_000_000, ClusterSec: 60, HarnessSec: 120,
	ReplayReps: 20, MatMulReps: 40, MaxCaptured: 32,
}

var smokeScale = scale{
	CollectSec: 300, SetupEpochs: 1, Setups: 1,
	SocialSec: 60, HotelSec: 20, Warmup: 10, TrainEpochs: 1,
	Rounds: 1, TracedRounds: 1,
	SimEvents: 20_000, ClusterSec: 5, HarnessSec: 10,
	ReplayReps: 2, MatMulReps: 2, MaxCaptured: 4,
}

// Set-up seeds are fixed: the trained model is part of the configuration
// under test, and letting -seed change it would move the share of
// model-driven intervals by far more than any bound. -seed drives the
// request arrivals of the managed runs instead.
const (
	collectSeed = 43
	trainSeed   = 2
	socialQoSMS = 500
)

// session is everything set-up produces and the workloads consume.
type session struct {
	sc     scale
	social *apps.App
	hotel  *apps.App

	ds     *dataset.Dataset
	model  *core.HybridModel // decoded from the lifecycle envelope, as a deployment would load it
	report core.TrainReport
	digest uint64 // of the training report: equal across set-ups, or set-up is not deterministic

	srv    *predsvc.Server
	client *predsvc.Client

	total, collectDur, trainDur, encodeDur, decodeDur time.Duration
	artifactBytes                                     int
}

// setUp performs the benchmark's set-up from nothing: collect a dataset,
// train the hybrid model, pass it through the lifecycle envelope, and bring
// up one prediction server on loopback with one client dialled to it.
func setUp(sc scale, tr *tracer) (*session, error) {
	s := &session{sc: sc, social: apps.NewSocialNetwork(), hotel: apps.NewHotelReservation()}
	start := time.Now()
	tr.begin("setup", start)

	tr.begin("collect.run", start)
	s.ds = collect.Run(collect.Config{
		App:      s.social,
		Policy:   collect.NewBandit(s.social, collectSeed),
		Pattern:  collect.SweepPattern{MinRPS: 50, MaxRPS: 450, SegmentLen: 30, Seed: collectSeed},
		Duration: sc.CollectSec,
		Seed:     collectSeed,
		Dims:     collect.DefaultDims(s.social),
		K:        5,
	})
	t1 := time.Now()
	tr.end(t1)
	s.collectDur = t1.Sub(start)

	tr.begin("core.train", t1)
	trained, rep := core.TrainHybrid(s.ds, socialQoSMS, core.TrainOptions{Seed: trainSeed, Epochs: sc.SetupEpochs})
	t2 := time.Now()
	tr.end(t2)
	s.trainDur, s.report, s.digest = t2.Sub(t1), rep, reportDigest(rep, trained)
	if math.IsNaN(rep.ValRMSE) || math.IsInf(rep.ValRMSE, 0) {
		return nil, fmt.Errorf("set-up: validation RMSE is %v", rep.ValRMSE)
	}

	tr.begin("lifecycle.encode", t2)
	artifact, _, err := lifecycle.Encode(trained, lifecycle.Manifest{Samples: s.ds.Len(), Note: "bench set-up"})
	t3 := time.Now()
	tr.end(t3)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	tr.begin("lifecycle.decode", t3)
	s.model, _, err = lifecycle.Decode(artifact)
	t4 := time.Now()
	tr.end(t4)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s.encodeDur, s.decodeDur = t3.Sub(t2), t4.Sub(t3)
	s.artifactBytes = len(artifact)

	tr.begin("predsvc.start", t4)
	s.srv, _, err = predsvc.ListenAndServe("127.0.0.1:0", s.model)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s.client, err = predsvc.Dial(s.srv.Addr().String())
	if err != nil {
		s.srv.Close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	end := time.Now()
	tr.end(end)
	tr.end(end)
	s.total = end.Sub(start)
	return s, nil
}

// close stops the client and the server and waits for the server's
// goroutines to drain.
func (s *session) close() {
	s.client.Close()
	s.srv.Close()
}
