package core

import (
	"hash/fnv"
	"runtime"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/collect"
	"sinan/internal/dataset"
)

// datasetDigest hashes every input and latency target of ds.
func datasetDigest(ds *dataset.Dataset) uint64 {
	h := fnv.New64a()
	pinFloats(h, ds.RH...)
	pinFloats(h, ds.LH...)
	pinFloats(h, ds.RC...)
	pinFloats(h, ds.YLat...)
	return h.Sum64()
}

// Dataset.Inputs and Targets hand training views of the dataset's own
// storage, so training must only read them: TrainHybrid (which trains on a
// split's copy and reads the violation labels of the original) and Retrain
// (which fine-tunes on the dataset it is given, directly) leave every float
// of their dataset as it was.
func TestTrainHybridLeavesDatasetUntouched(t *testing.T) {
	ds := synthDataset(5, 300, 1.0)
	before := datasetDigest(ds)
	m, _ := TrainHybrid(ds, 200, TrainOptions{Seed: 5, Epochs: 2, Latent: 8})
	if got := datasetDigest(ds); got != before {
		t.Fatalf("TrainHybrid wrote into its dataset: digest %#016x, was %#016x", got, before)
	}
	shifted := synthDataset(6, 200, 1.5)
	before = datasetDigest(shifted)
	m.Retrain(shifted, RetrainOptions{Epochs: 2, Seed: 5})
	if got := datasetDigest(shifted); got != before {
		t.Fatalf("Retrain wrote into its dataset: digest %#016x, was %#016x", got, before)
	}
}

// The end-to-end twin of nn.TestTrainStepSteadyStateAllocs: one TrainHybrid
// on the benchmark's set-up dataset (1200 s of bandit collection on
// SocialNetwork, bench/setup.go) allocates 28, 34 and 45 MB at 1, 2 and 4
// workers — the split's copy, the normalised copy, a 5.6 MB tape per worker,
// the trees' design matrices — where it allocated 74, 94 and 135 MB while
// Conv2D unfolded whole shards and Inputs, Targets and predict copied the
// dataset. The guard sits between the two at every worker count.
func TestTrainHybridAllocVolume(t *testing.T) {
	if testing.Short() {
		t.Skip("collects 1200 s of SocialNetwork")
	}
	app := apps.NewSocialNetwork()
	ds := collect.Run(collect.Config{
		App:      app,
		Policy:   collect.NewBandit(app, 43),
		Pattern:  collect.SweepPattern{MinRPS: 50, MaxRPS: 450, SegmentLen: 30, Seed: 43},
		Duration: 1200,
		Seed:     43,
		Dims:     collect.DefaultDims(app),
		K:        5,
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	TrainHybrid(ds, 500, TrainOptions{Seed: 2, Epochs: 3})
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("TrainHybrid on %d samples allocated %.1f MB at GOMAXPROCS %d", ds.Len(), mb, runtime.GOMAXPROCS(0))
	if mb > 50 {
		t.Fatalf("TrainHybrid allocated %.1f MB, want at most 50", mb)
	}
}
