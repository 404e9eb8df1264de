package experiments

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"sinan/internal/collect"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/nn"
)

// fakeLab returns a quick lab whose collection and training are stubbed
// with cheap counted fakes, so concurrency behaviour can be tested without
// simulating or training anything. The fakes block until release is closed,
// so a test can hold the first caller inside a fake until every other
// caller has started.
func fakeLab(collects, trains *atomic.Int32, release <-chan struct{}) *Lab {
	l := NewLab(true, nil)
	l.collectFn = func(cfg collect.Config) *dataset.Dataset {
		collects.Add(1)
		<-release
		return dataset.New(nn.Dims{N: 2, T: 2, F: 2, M: 1}, cfg.K)
	}
	l.trainFn = func(ds *dataset.Dataset, qos float64, opts core.TrainOptions) (*core.HybridModel, core.TrainReport) {
		trains.Add(1)
		<-release
		return &core.HybridModel{QoSMS: qos, K: ds.K}, core.TrainReport{ValRMSE: 1}
	}
	return l
}

// runGated runs call(g) on n goroutines against fakes that block until all
// n goroutines have started, and returns once every call has returned.
func runGated(n int, release chan struct{}, call func(g int)) {
	var started, done sync.WaitGroup
	started.Add(n)
	done.Add(n)
	for g := 0; g < n; g++ {
		go func(g int) {
			defer done.Done()
			started.Done()
			call(g)
		}(g)
	}
	started.Wait()
	close(release)
	done.Wait()
}

// TestLabConcurrentMemoization: N goroutines requesting the same cached
// dataset and model trigger exactly one collection and one training run and
// all observe the same artifact.
func TestLabConcurrentMemoization(t *testing.T) {
	var collects, trains atomic.Int32
	release := make(chan struct{})
	l := fakeLab(&collects, &trains, release)

	const goroutines = 8
	dss := make([]*dataset.Dataset, goroutines)
	models := make([]*core.HybridModel, goroutines)
	runGated(goroutines, release, func(g int) {
		dss[g] = l.SocialDataset()
		models[g], _ = l.SocialModel()
	})

	if n := collects.Load(); n != 1 {
		t.Fatalf("social dataset collected %d times, want 1", n)
	}
	if n := trains.Load(); n != 1 {
		t.Fatalf("social model trained %d times, want 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if dss[g] != dss[0] {
			t.Fatal("goroutines observed different dataset artifacts")
		}
		if models[g] != models[0] {
			t.Fatal("goroutines observed different model artifacts")
		}
	}
}

// TestLabConcurrentDistinctArtifacts: hotel and social artifacts memoize
// independently — concurrent mixed requests yield one run per artifact.
func TestLabConcurrentDistinctArtifacts(t *testing.T) {
	var collects, trains atomic.Int32
	release := make(chan struct{})
	l := fakeLab(&collects, &trains, release)

	runGated(6, release, func(g int) {
		if g%2 == 0 {
			l.HotelModel()
		} else {
			l.SocialModel()
		}
	})

	if n := collects.Load(); n != 2 {
		t.Fatalf("collections = %d, want 2 (hotel + social)", n)
	}
	if n := trains.Load(); n != 2 {
		t.Fatalf("trainings = %d, want 2 (hotel + social)", n)
	}
}

// TestLabConcurrentLogging: interleaved logf calls from many goroutines
// keep lines whole (the data race itself is caught by -race).
func TestLabConcurrentLogging(t *testing.T) {
	var buf bytes.Buffer
	l := NewLab(true, &buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.logf("goroutine %d line %d", g, i)
			}
		}(g)
	}
	wg.Wait()
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if lines != 8*50 {
		t.Fatalf("logged %d lines, want %d", lines, 8*50)
	}
}
