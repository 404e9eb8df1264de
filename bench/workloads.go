package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"syscall"
	"time"

	"sinan/internal/baselines"
	"sinan/internal/cluster"
	"sinan/internal/core"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/statplane"
	"sinan/internal/telemetry"
	"sinan/internal/tensor"
	"sinan/internal/workload"
)

const (
	wInproc = "social_inproc"
	wHotel  = "hotel_autoscale"
	wRPC    = "social_rpc"
	wTrain  = "social_train"
)

// workloadDef is one benchmark workload. Why is recorded here because it is
// the reason the workload exists; BENCHMARK.json and README.md repeat it.
// Weight is the number of runs per round-robin round, chosen so that a round
// spends comparable wall time on each workload.
type workloadDef struct {
	Name   string
	Weight int
	Why    string
}

var workloads = []workloadDef{
	{wInproc, 3, "The paper's loop: SocialNetwork under the Sinan scheduler on the in-process model; simulator ~70% and decide ~30% of wall, so inference and event-core changes both show, diluted by their share."},
	{wHotel, 1, "No model in the loop: HotelReservation under AutoScaleCons at ~2000 req/s is ~99% sim+cluster+workload; an event-core change shows fully here, an inference or RPC change must show nothing."},
	{wRPC, 3, "social_inproc run-for-run with the predictor behind predsvc over loopback TCP; the trajectory is bit-identical, so the pair isolates wire cost and checks correctness."},
	{wTrain, 1, "core.TrainHybrid on the set-up dataset: backward pass, sharded batch-256 GEMM and tree growing, which the managed workloads (forward only, B~170) never run."},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// decideSample is one model-driven decision interval: one in which the
// scheduler scored candidates. Predict and Floats are filled only on traced
// runs, where the predictor is wrapped.
type decideSample struct {
	Interval int
	Decide   time.Duration
	Predict  time.Duration
	Cands    int
	Floats   int // floats sent to the predictor
}

// runRecord is everything one run (one runner.Run or one core.TrainHybrid)
// left behind.
type runRecord struct {
	Workload string
	Seed     int64

	Wall, CPU time.Duration
	Mallocs   uint64
	GCCycles  uint32
	GCPause   time.Duration

	// SimSec is the simulated time the run processed: the run's duration
	// for a managed run; for a training run, the simulated seconds the
	// training set was collected over (one sample per decision interval).
	SimSec float64
	Ops    int // decision intervals, or 1 for a training run
	Failed int // degraded decisions, predictor errors, failed output checks
	// Degraded counts the decisions the scheduler's fallback made.
	Degraded int
	Digest   uint64

	MeetFrac, MeanAlloc float64
	Requests            int64
	Decides             []decideSample  // model-driven intervals only
	DecideAll           time.Duration   // every interval
	Collects            []time.Duration // traced runs only
	ValRMSE             float64         // training runs only

	Problems []string // output checks that failed
}

// fail counts one failed operation; only the first few are spelled out.
func (r *runRecord) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 5 {
		r.Problems = append(r.Problems, fmt.Sprintf("%s seed %d: ", r.Workload, r.Seed)+fmt.Sprintf(format, args...))
	}
}

// measured runs fn and fills the record's process-level costs. The forced
// collection beforehand starts every run from the same heap state; cycles
// the run itself triggers are still counted.
func measured(rec *runRecord, tr *tracer, name string, fn func()) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	tr.begin(name, t0)
	fn()
	t1 := time.Now()
	tr.end(t1)
	rec.CPU = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	rec.Wall = t1.Sub(t0)
	rec.Mallocs = m1.Mallocs - m0.Mallocs
	rec.GCCycles = m1.NumGC - m0.NumGC
	rec.GCPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU time, which counts the garbage
// collector and the prediction server's goroutines that wall time hides on
// a multi-core box.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// timedPolicy wraps the policy seam. It always times Decide (decide_ms_p50
// is an end-to-end metric, so it is taken with tracing off too), classifies
// the interval as model-driven when the scheduler's candidate counter
// advanced, and checks every chosen allocation outside the timed region.
type timedPolicy struct {
	inner runner.Policy
	// scored reads the scheduler's running count of candidates scored; nil
	// for a baseline policy, which has no model and is not checked.
	scored func() int
	pred   *tracedPredictor // nil on untraced runs
	tiers  []cluster.TierConfig
	span   string
	tr     *tracer
	rec    *runRecord
	n      int
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) AttachMetrics(reg *telemetry.Registry) {
	if a, ok := p.inner.(telemetry.Attacher); ok {
		a.AttachMetrics(reg)
	}
}

func (p *timedPolicy) Decide(st runner.State) runner.Decision {
	before := 0
	if p.scored != nil {
		before = p.scored()
	}
	t0 := time.Now()
	p.tr.begin(p.span, t0)
	dec := p.inner.Decide(st)
	t1 := time.Now()
	p.tr.end(t1)

	d := t1.Sub(t0)
	p.rec.DecideAll += d
	if p.scored != nil {
		if c := p.scored() - before; c > 0 {
			s := decideSample{Interval: p.n, Decide: d, Cands: c}
			if p.pred != nil {
				s.Predict, s.Floats = p.pred.last, p.pred.lastFloats
			}
			p.rec.Decides = append(p.rec.Decides, s)
		}
		if dec.Degraded {
			p.rec.Degraded++
			p.rec.fail("interval %d decided by the degraded fallback", p.n)
		}
		for i, v := range dec.Alloc {
			if !onGrid(v, p.tiers[i]) {
				p.rec.fail("interval %d tier %s: allocation %v outside [%v,%v] or off the 0.1-core grid",
					p.n, p.tiers[i].Name, v, p.tiers[i].MinCPU, p.tiers[i].MaxCPU)
			}
		}
	}
	p.n++
	return dec
}

// onGrid reports whether v is a legal allocation for the tier: within its
// bounds and a multiple of 0.1 cores.
func onGrid(v float64, tc cluster.TierConfig) bool {
	const eps = 1e-9
	return v >= tc.MinCPU-eps && v <= tc.MaxCPU+eps && math.Abs(v*10-math.Round(v*10)) < 1e-6
}

// tracedPlane wraps the stats-plane seam (runner.Config.Plane).
type tracedPlane struct {
	inner *statplane.Pipeline
	tr    *tracer
	rec   *runRecord
}

func (p *tracedPlane) AttachMetrics(reg *telemetry.Registry) { p.inner.AttachMetrics(reg) }

func (p *tracedPlane) Collect(interval int64, now float64) statplane.IntervalState {
	t0 := time.Now()
	p.tr.begin("statplane.collect", t0)
	st := p.inner.Collect(interval, now)
	t1 := time.Now()
	p.tr.end(t1)
	p.rec.Collects = append(p.rec.Collects, t1.Sub(t0))
	return st
}

// sharedPredictor is what both the in-process model and the RPC client are
// to the scheduler.
type sharedPredictor interface {
	core.Predictor
	core.SharedPredictor
}

// tracedPredictor wraps the predictor seam. capture, when set, is offered
// every captureEvery-th query (after the timed region) for the replay
// probes; the query's tensors belong to the scheduler, so a keeper copies.
type tracedPredictor struct {
	inner      sharedPredictor
	span       string
	tr         *tracer
	last       time.Duration
	lastFloats int
	queries    int
	capture    func(nn.SharedInputs)
}

const captureEvery = 16

func (p *tracedPredictor) Meta() core.ModelMeta { return p.inner.Meta() }

func (p *tracedPredictor) PredictBatch(ctx *core.PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	return p.inner.PredictBatch(ctx, in)
}

func (p *tracedPredictor) PredictShared(ctx *core.PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	t0 := time.Now()
	p.tr.begin(p.span, t0)
	pred, pviol, err := p.inner.PredictShared(ctx, in)
	t1 := time.Now()
	p.tr.end(t1)
	p.last = t1.Sub(t0)
	p.lastFloats = in.RH.Size() + in.LH.Size() + in.RC.Size()
	if p.capture != nil && p.queries%captureEvery == 0 {
		p.capture(in)
	}
	p.queries++
	return pred, pviol, err
}

// runOne executes run number r of a workload. tr == nil is an untraced
// run: only the policy seam is wrapped (for decide timing and the output
// checks); a traced run also wraps the stats plane and the predictor.
func (b *bench) runOne(name string, seed int64, tr *tracer) runRecord {
	rec := runRecord{Workload: name, Seed: seed}
	if tr != nil {
		tr.startRun(name, seed)
	}
	if name == wTrain {
		b.runTrain(&rec, tr)
	} else {
		b.runManaged(&rec, tr)
	}
	return rec
}

func (b *bench) runTrain(rec *runRecord, tr *tracer) {
	s := b.sess
	var rep core.TrainReport
	var m *core.HybridModel
	measured(rec, tr, "core.train", func() {
		m, rep = core.TrainHybrid(s.ds, socialQoSMS, core.TrainOptions{Seed: trainSeed, Epochs: s.sc.TrainEpochs})
	})
	rec.SimSec, rec.Ops, rec.ValRMSE = float64(s.ds.Len()), 1, rep.ValRMSE
	for _, v := range []float64{rep.TrainRMSE, rep.ValRMSE, rep.ValRMSESubQoS, rep.ValAcc, m.Pd, m.Pu} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rec.fail("training report holds a non-finite value: %+v", rep)
			break
		}
	}
	rec.Digest = reportDigest(rep, m)
}

// reportDigest hashes what training produced: two trainings have the same
// digest only if they reached the same errors, trees and thresholds.
func reportDigest(rep core.TrainReport, m *core.HybridModel) uint64 {
	h := fnv.New64a()
	hashFloats(h, rep.TrainRMSE, rep.ValRMSE, rep.ValRMSESubQoS, rep.ValAcc, float64(rep.NumTrees), m.Pd, m.Pu)
	return h.Sum64()
}

func (b *bench) runManaged(rec *runRecord, tr *tracer) {
	s := b.sess
	app, dur := s.social, s.sc.SocialSec
	var pattern workload.Pattern = workload.Diurnal{Min: 100, Max: 350, Period: 200}
	pol := &timedPolicy{tr: tr, rec: rec}
	var sched *core.Scheduler
	switch rec.Workload {
	case wHotel:
		app, dur = s.hotel, s.sc.HotelSec
		pattern = workload.Diurnal{Min: 1000, Max: 3000, Period: 200}
		pol.inner, pol.span = baselines.NewAutoScaleCons(), "baselines.decide"
	default:
		var pred sharedPredictor = s.model
		span := "core.predict"
		if rec.Workload == wRPC {
			pred, span = s.client, "predsvc.call"
		}
		if tr != nil {
			pol.pred = &tracedPredictor{inner: pred, span: span, tr: tr}
			if rec.Workload == wInproc {
				pol.pred.capture = b.captureQuery
			}
			pred = pol.pred
		}
		// Slowness-driven brownout reads the wall clock; it is disabled so
		// that the simulated trajectory is a function of the seed alone and
		// the inproc/rpc digests can be compared.
		sched = core.NewScheduler(app, pred, core.SchedulerOptions{SlowPredictMS: -1})
		pol.inner, pol.scored, pol.span = sched, sched.CandidatesScored, "core.decide"
	}
	pol.tiers = app.Tiers
	cfg := runner.Config{
		App: app, Policy: pol, Pattern: pattern, Duration: dur, Seed: rec.Seed,
		Warmup: s.sc.Warmup, KeepTrace: true,
	}
	if tr != nil {
		cfg.Plane = func(cl *cluster.Cluster, gw statplane.GatewaySource) statplane.Plane {
			return &tracedPlane{tr: tr, rec: rec, inner: statplane.NewInProcess(statplane.Config{
				Sampler: cl, NumTiers: cl.NumTiers(), Gateway: gw, IntervalSec: runner.Interval,
			})}
		}
	}
	var res *runner.Result
	measured(rec, tr, "runner.run", func() { res = runner.Run(cfg) })

	rec.SimSec = dur
	rec.Ops = int(res.Metrics.Counter("run.intervals").Value())
	rec.MeetFrac, rec.MeanAlloc = res.Meter.MeetProb(), res.Meter.MeanAlloc()
	rec.Requests = res.Completed + res.Dropped
	rec.Digest = traceDigest(res.Trace)
	if want := int(dur / runner.Interval); rec.Ops != want || len(res.Trace) != want {
		rec.fail("ran %d intervals (%d trace rows), want %d", rec.Ops, len(res.Trace), want)
	}
	if res.Completed <= 0 {
		rec.fail("no request completed")
	}
	if sched != nil && sched.PredictErrors() > 0 {
		rec.fail("%d predictor errors", sched.PredictErrors())
	}
}

// traceDigest is FNV-1a over every field of every trace row, floats by
// their bits: two runs have the same digest only if the simulated
// trajectory and every decision in it were bit-identical.
func traceDigest(rows []runner.TraceRow) uint64 {
	h := fnv.New64a()
	for _, r := range rows {
		deg := 0.0
		if r.Degraded {
			deg = 1
		}
		hashFloats(h, r.Time, r.RPS, r.P99MS, float64(r.Drops), r.PredP99MS, r.PViol, r.Total, deg, float64(r.Brownout))
		hashFloats(h, r.Alloc...)
	}
	return h.Sum64()
}

func hashFloats(h hash.Hash64, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}
