package core

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/collect"
	"sinan/internal/dataset"
	"sinan/internal/nn"
)

// datasetDigest hashes every input window and latency target of ds.
func datasetDigest(ds *dataset.Dataset) uint64 {
	h := fnv.New64a()
	in := ds.Inputs()
	pinFloats(h, in.RH.Data...)
	pinFloats(h, in.LH.Data...)
	pinFloats(h, in.RC.Data...)
	pinFloats(h, ds.YLat...)
	return h.Sum64()
}

// Training gathers the dataset's rows through GatherInto and reads the
// targets through Targets' view of the dataset's storage, normalising only
// the copies each worker gathers. So TrainHybrid and rebuildHybrid (which
// train and forward through the split's row lists) and Retrain (which
// fine-tunes on every row of the dataset it is given) leave every float of
// their dataset as it was.
func TestTrainHybridLeavesDatasetUntouched(t *testing.T) {
	ds := synthDataset(5, 300, 1.0)
	before := datasetDigest(ds)
	m, _ := TrainHybrid(ds, 200, TrainOptions{Seed: 5, Epochs: 2, Latent: 8})
	if got := datasetDigest(ds); got != before {
		t.Fatalf("TrainHybrid wrote into its dataset: digest %#016x, was %#016x", got, before)
	}
	rebuildHybrid(m.Lat, ds, 200)
	if got := datasetDigest(ds); got != before {
		t.Fatalf("rebuildHybrid wrote into its dataset: digest %#016x, was %#016x", got, before)
	}
	shifted := synthDataset(6, 200, 1.5)
	before = datasetDigest(shifted)
	m.Retrain(shifted, RetrainOptions{Epochs: 2, Seed: 5})
	if got := datasetDigest(shifted); got != before {
		t.Fatalf("Retrain wrote into its dataset: digest %#016x, was %#016x", got, before)
	}
}

// TrainHybrid trains and evaluates on the split's rows in place. Its CNN
// must be the one nn.Train fits on the split's copy, bit for bit, and its
// RMSEs those of that model on the copies; batch 64 leaves each epoch's last
// minibatch partial.
func TestTrainHybridRowsMatchSplitCopy(t *testing.T) {
	ds := synthDataset(8, 300, 1.0)
	opts := TrainOptions{Seed: 3, Epochs: 2, Batch: 64, Latent: 8}
	m, rep := TrainHybrid(ds, 200, opts)
	o := opts.withDefaults()
	train, val := ds.Split(trainFrac, o.Seed)
	want := nn.Train(nn.NewLatencyCNN(rand.New(rand.NewSource(o.Seed)), ds.D, o.Latent), train.Inputs(), train.Targets(),
		nn.TrainConfig{Epochs: o.Epochs, Batch: o.Batch, LR: o.LR, QoSMS: 200, Seed: o.Seed})
	for i, p := range want.Model.Params() {
		for j, w := range p.W.Data {
			if got := m.Lat.Model.Params()[i].W.Data[j]; got != w {
				t.Fatalf("param %s element %d: %v trained on rows, %v on the split's copy", p.Name, j, got, w)
			}
		}
	}
	if got, want := rep.TrainRMSE, want.RMSE(train.Inputs(), train.Targets()); got != want {
		t.Errorf("train RMSE %v over rows, %v over the copy", got, want)
	}
	if got, want := rep.ValRMSE, want.RMSE(val.Inputs(), val.Targets()); got != want {
		t.Errorf("validation RMSE %v over rows, %v over the copy", got, want)
	}
}

// A split with an empty side has nothing to train on or no RMSEValid to
// give the scheduler (0/0 would switch its latency filters off), so
// TrainHybrid and rebuildHybrid refuse it, naming the sizes.
func TestTrainHybridRefusesEmptySplit(t *testing.T) {
	ds := synthDataset(7, 40, 1.0)
	for name, train := range map[string]func(){
		"TrainHybrid, 1 row":    func() { TrainHybrid(ds.Select([]int{0}), 200, TrainOptions{Epochs: 1}) },
		"TrainHybrid, 0 rows":   func() { TrainHybrid(ds.Select(nil), 200, TrainOptions{Epochs: 1}) },
		"rebuildHybrid, 1 row":  func() { rebuildHybrid(nil, ds.Select([]int{0}), 200) },
		"rebuildHybrid, 0 rows": func() { rebuildHybrid(nil, ds.Select(nil), 200) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "train and") || !strings.Contains(msg, "validation samples") {
					t.Errorf("%s: panic %q, want one naming the split's sizes", name, msg)
				}
			}()
			train()
		}()
	}
}

// setupDataset collects the benchmark's set-up dataset: 1200 s of bandit
// collection on SocialNetwork (bench/setup.go), 1191 samples.
func setupDataset() *dataset.Dataset {
	app := apps.NewSocialNetwork()
	return collect.Run(collect.Config{
		App:      app,
		Policy:   collect.NewBandit(app, 43),
		Pattern:  collect.SweepPattern{MinRPS: 50, MaxRPS: 450, SegmentLen: 30, Seed: 43},
		Duration: 1200,
		Seed:     43,
		Dims:     collect.DefaultDims(app),
		K:        5,
	})
}

// The set-up dataset stores each decision interval once: 1195 steps of 173
// floats for 1191 samples. Held, it retains 1.9 MB of heap, where whole
// windows retained 8.2 MB; collecting it allocates 7.9 MB, where it
// allocated 14.3 MB. The guards, 3 and 10 MB, sit between.
func TestSetupDatasetFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("collects 1200 s of SocialNetwork")
	}
	var before, collected, held runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ds := setupDataset()
	runtime.ReadMemStats(&collected)
	runtime.GC()
	runtime.ReadMemStats(&held)
	const mb = 1 << 20
	alloc := float64(collected.TotalAlloc-before.TotalAlloc) / mb
	retained := float64(int64(held.HeapAlloc)-int64(before.HeapAlloc)) / mb
	t.Logf("%d samples: collecting allocated %.1f MB, the dataset retains %.1f MB", ds.Len(), alloc, retained)
	if alloc > 10 {
		t.Errorf("collect.Run allocated %.1f MB, want at most 10", alloc)
	}
	if retained > 3 {
		t.Errorf("the set-up dataset retains %.1f MB of heap, want at most 3", retained)
	}
	runtime.KeepAlive(ds)
}

// The end-to-end twin of nn.TestTrainStepSteadyStateAllocs: one TrainHybrid
// on the benchmark's set-up dataset allocates 8.5, 11.5 and 17.5 MB at 1, 2
// and 4 workers — per worker a 2.4 MB tape, a 0.44 MB gather buffer and the
// trees' forward context's one-sample im2col scratch (0.14 MB; the trees'
// workers split one 64-row chunk between them), plus the trees' design
// matrices; the normaliser gathers its chunks into the first shard's
// buffers, so assembling windows from the dataset's steps costs no buffer of
// its own. It allocated 8.5, 11.3 and 17.1 MB while the trees' forward ran on
// one context; 12.4, 18.1 and 29.5 MB while ReLU copied its input and its
// gradient and conv2 had a dx of its own (a 5.2 MB tape); 27.8, 33.5 and
// 44.9 MB while the split was copied out and then normalised whole; and 74,
// 94 and 135 MB before that, while Conv2D unfolded whole shards and Inputs,
// Targets and predict copied the dataset. The guard, 6.5 MB plus 3.5 MB per
// worker (10, 13.5 and 20.5 MB), sits between today's row and the 5.2 MB-tape
// row at every worker count, and its slope is above the 3.0 MB a worker adds.
func TestTrainHybridAllocVolume(t *testing.T) {
	if testing.Short() {
		t.Skip("collects 1200 s of SocialNetwork")
	}
	ds := setupDataset()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	TrainHybrid(ds, 500, TrainOptions{Seed: 2, Epochs: 3})
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	procs := runtime.GOMAXPROCS(0)
	t.Logf("TrainHybrid on %d samples allocated %.1f MB at GOMAXPROCS %d", ds.Len(), mb, procs)
	if limit := 6.5 + 3.5*float64(procs); mb > limit {
		t.Fatalf("TrainHybrid allocated %.1f MB at GOMAXPROCS %d, want at most %.1f", mb, procs, limit)
	}
}

// Training allocates per run, not per step: on the benchmark's set-up
// dataset (1071 train rows, five minibatches an epoch) TrainHybrid at
// Epochs 3 makes no more allocations per extra step than the fork of the
// step's gradient shards costs over Epochs 1. tensor.ParallelFor allocates
// the caller's fn (all it costs at GOMAXPROCS 1, where it runs fn inline),
// the WaitGroup and a closure per worker (2 + min(GOMAXPROCS, 4)), and the
// runtime may allocate a goroutine or a waiter the first times a worker runs
// on another P (20 per extra P). A run's own count also varies by a few
// objects from run to run at any worker count (750–754 at one, Epochs 1),
// hence 16 more. Nothing below the fork allocates: the loss gradient lives
// on the shard, no GEMM forks inside a shard, and the trees' nodes, Trees
// and cuts come from slabs sized once per run. It reads 0.6–1.4, 3.5–5.1
// and 5–7.9 per step at 1, 2 and 4 procs; while GEMMs forked inside shards,
// loss gradients were allocated per shard and tree nodes per growth step,
// the same difference read −66 (fewer trees at Epochs 3), 6.8 and 56, and a
// loss gradient allocated per shard alone adds 12 to 18 per step.
func TestTrainHybridAllocsPerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("collects 1200 s of SocialNetwork")
	}
	ds := setupDataset()
	mallocs := func(epochs int) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		TrainHybrid(ds, 500, TrainOptions{Seed: 2, Epochs: epochs})
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	mallocs(1) // the first run warms the runtime's goroutine and waiter caches
	one, three := mallocs(1), mallocs(3)
	procs := runtime.GOMAXPROCS(0)
	const steps = 2 * 5
	fork := 1
	if procs > 1 {
		fork = 2 + min(procs, 4)
	}
	perStep := float64(three-one) / steps
	t.Logf("GOMAXPROCS %d: %d allocations at 1 epoch, %d at 3: %.1f per step", procs, one, three, perStep)
	if limit := int64(steps*fork + 16 + 20*(procs-1)); three-one > limit {
		t.Fatalf("GOMAXPROCS %d: two more epochs allocate %d objects (%.1f per step), want at most %d", procs, three-one, perStep, limit)
	}
}
