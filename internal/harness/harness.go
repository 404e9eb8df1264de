// Package harness executes suites of managed runs on a worker pool. It is
// the declarative run layer every experiment driver, benchmark, and command
// sits on: a RunSpec names one managed run (application, policy factory,
// load pattern, duration, seed), a Suite groups the specs of one study, and
// Run executes the suite on up to GOMAXPROCS workers while guaranteeing
// bit-identical results regardless of worker count.
//
// Determinism rests on three rules the package enforces or demands:
//
//  1. Every run's randomness comes only from its spec. The runner builds a
//     private engine and RNG per run, and seeds are resolved up front —
//     explicitly from the spec, or derived deterministically from the
//     suite's base seed, the suite and spec names, and the spec index.
//  2. Policies are constructed per run via runner.PolicyFactory, never
//     shared: autoscale cooldowns, PowerChief queue estimates, and the
//     Sinan scheduler's trust counters are all per-run state.
//  3. Aggregation is positional. Outcomes are returned in spec order, not
//     completion order.
package harness

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sync"

	"sinan/internal/apps"
	"sinan/internal/dataset"
	"sinan/internal/runner"
	"sinan/internal/telemetry"
	"sinan/internal/workload"
)

// RunSpec declares one managed run. The App and Pattern are treated as
// read-only during execution and may be shared between specs; the Policy
// factory is invoked once per execution so policy state never is. A
// Recorder, when set, is owned exclusively by this spec.
type RunSpec struct {
	Name     string // label for aggregation, progress, and seed derivation
	App      *apps.App
	Policy   runner.PolicyFactory
	Pattern  workload.Pattern
	Duration float64 // simulated seconds
	// Seed pins the run's randomness. Zero means "derive": the executor
	// fills it from the suite base seed, suite/spec names, and spec index,
	// so an unpinned suite is still reproducible end to end.
	Seed      int64
	Warmup    float64
	InitAlloc []float64
	KeepTrace bool
	Recorder  *dataset.Recorder
	// Faults is an optional fault-injection plan. Like the Recorder it is
	// owned exclusively by this spec: an injector binds to one run's engine
	// and must never be shared across specs.
	Faults runner.FaultInjector
}

// Suite is an ordered collection of runs evaluated together.
type Suite struct {
	Name     string
	BaseSeed int64
	Specs    []RunSpec
}

// Outcome pairs a spec with its result. Policy is the instance the run
// used, so callers can read policy-side counters (e.g. the scheduler's
// misprediction tally) after the fact.
type Outcome struct {
	Index  int
	Seed   int64 // the resolved seed the run executed with
	Spec   RunSpec
	Policy runner.Policy
	Result *runner.Result
}

// Options tunes suite execution.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Progress, when set, receives one "k/n name" line per completed run
	// (in completion order; purely informational).
	Progress io.Writer
	// Metrics, when set, is the root registry the suite's telemetry hangs
	// on. Each execution of the suite gets a uniquely-named group child
	// ("<suite>#k"), and each run a child of that named by spec index and
	// name ("007-specname"), so re-running a suite never double-counts and
	// per-run namespaces are deterministic regardless of worker count.
	Metrics *telemetry.Registry
}

// Run executes every spec of the suite and returns outcomes in spec order.
// With Workers == 1 execution is strictly sequential; with more workers the
// runs proceed concurrently but produce identical Results, because each run
// is a pure function of its spec and resolved seed.
func Run(suite Suite, opt Options) []Outcome {
	n := len(suite.Specs)
	if n == 0 {
		return nil
	}
	seeds := make([]int64, n)
	for i, sp := range suite.Specs {
		if sp.Policy == nil {
			panic(fmt.Sprintf("harness: spec %d (%q) has no policy factory", i, sp.Name))
		}
		seeds[i] = sp.Seed
		if sp.Seed == 0 {
			seeds[i] = DeriveSeed(suite.BaseSeed, suite.Name, sp.Name, i)
		}
	}

	var group *telemetry.Registry
	if opt.Metrics != nil {
		group = opt.Metrics.Group(suite.Name)
	}

	var mu sync.Mutex // serialises the progress count and its lines
	done := 0
	return Map(n, opt.Workers, func(i int) Outcome {
		var reg *telemetry.Registry
		if group != nil {
			reg = group.Child(fmt.Sprintf("%03d-%s", i, suite.Specs[i].Name))
		}
		out := execute(i, suite.Specs[i], seeds[i], reg)
		if opt.Progress != nil {
			mu.Lock()
			done++
			fmt.Fprintf(opt.Progress, "harness: %d/%d %s\n", done, n, suite.Specs[i].Name)
			mu.Unlock()
		}
		return out
	})
}

// One executes a single spec synchronously and returns its outcome — the
// degenerate suite, for call sites that manage one run but want the same
// policy-factory and seed conventions.
func One(spec RunSpec) Outcome {
	return Run(Suite{Name: spec.Name, Specs: []RunSpec{spec}}, Options{Workers: 1})[0]
}

func execute(index int, sp RunSpec, seed int64, reg *telemetry.Registry) Outcome {
	pol := sp.Policy()
	res := runner.Run(runner.Config{
		App:       sp.App,
		Policy:    pol,
		Pattern:   sp.Pattern,
		Duration:  sp.Duration,
		Seed:      seed,
		Warmup:    sp.Warmup,
		InitAlloc: sp.InitAlloc,
		KeepTrace: sp.KeepTrace,
		Recorder:  sp.Recorder,
		Faults:    sp.Faults,
		Metrics:   reg,
	})
	return Outcome{Index: index, Seed: seed, Spec: sp, Policy: pol, Result: res}
}

// DeriveSeed maps (base seed, suite name, spec name, spec index) to a
// well-mixed per-run seed. The derivation is position- and name-sensitive
// so sibling specs get decorrelated streams, and it is a pure function so
// any re-execution of the suite reproduces the same seeds.
func DeriveSeed(base int64, suiteName, specName string, index int) int64 {
	h := fnv.New64a()
	io.WriteString(h, suiteName)
	h.Write([]byte{0})
	io.WriteString(h, specName)
	x := uint64(base) ^ h.Sum64() ^ (uint64(index+1) * 0x9E3779B97F4A7C15)
	// splitmix64 finaliser
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	s := int64(x)
	if s == 0 {
		s = 1 // zero means "derive" in RunSpec; never emit it
	}
	return s
}

// Map runs fn over [0, n) on a worker pool and returns results in index
// order. It is the harness primitive for experiment stages that are not
// managed runs — training sweeps, dataset collections, per-scenario
// analyses — so they parallelise under the same worker-count conventions
// as suites. fn must be safe to call concurrently and must derive all its
// randomness from i.
func Map[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
