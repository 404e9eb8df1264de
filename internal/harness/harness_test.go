package harness

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/baselines"
	"sinan/internal/runner"
	"sinan/internal/workload"
)

// testSuite builds a suite that exercises every class of policy state the
// harness must isolate: autoscale cooldown timestamps, PowerChief queue
// estimates, and closure-captured state in a PolicyFunc. Short mode runs
// the same suite with shorter runs — determinism is a property of the
// executor, not of the run length, so the race gate keeps full coverage.
func testSuite(keepTrace bool) Suite {
	app := apps.NewHotelReservation()
	dur, warm := 25.0, 5.0
	if testing.Short() {
		dur, warm = 8.0, 2.0
	}
	s := Suite{Name: "determinism", BaseSeed: 7}
	for _, load := range []float64{1200, 2600} {
		load := load
		s.Specs = append(s.Specs, RunSpec{
			Name: fmt.Sprintf("opt-%.0f", load), App: app,
			Policy:  func() runner.Policy { return baselines.NewAutoScaleOpt() },
			Pattern: workload.Constant(load), Duration: dur, Warmup: warm, KeepTrace: keepTrace,
		})
		s.Specs = append(s.Specs, RunSpec{
			Name: fmt.Sprintf("cons-%.0f", load), App: app,
			Policy:  func() runner.Policy { return baselines.NewAutoScaleCons() },
			Pattern: workload.Constant(load), Duration: dur, Warmup: warm, KeepTrace: keepTrace,
		})
		s.Specs = append(s.Specs, RunSpec{
			Name: fmt.Sprintf("pc-%.0f", load), App: app,
			Policy:  func() runner.Policy { return baselines.NewPowerChief() },
			Pattern: workload.Constant(load), Duration: dur, Warmup: warm, KeepTrace: keepTrace,
		})
		s.Specs = append(s.Specs, RunSpec{
			Name: fmt.Sprintf("ramp-%.0f", load), App: app,
			Policy: func() runner.Policy {
				// Closure state: ramps allocations once latency crosses half
				// the QoS — shared across runs this would corrupt results.
				triggered := false
				return runner.PolicyFunc("ramp", func(st runner.State) runner.Decision {
					if st.Perc.P99() > app.QoSMS/2 {
						triggered = true
					}
					if !triggered {
						return runner.Decision{Alloc: st.Alloc}
					}
					next := make([]float64, len(st.Alloc))
					for i := range next {
						next[i] = math.Min(st.Alloc[i]*1.2, app.Tiers[i].MaxCPU)
					}
					return runner.Decision{Alloc: next}
				})
			},
			Pattern: workload.Constant(load), Duration: dur, Warmup: warm, KeepTrace: keepTrace,
		})
	}
	return s
}

func fingerprint(o Outcome) string {
	m := o.Result.Meter
	fp := fmt.Sprintf("%s seed=%d completed=%d dropped=%d meet=%.9f meanAlloc=%.9f maxAlloc=%.9f trace=%d",
		o.Spec.Name, o.Seed, o.Result.Completed, o.Result.Dropped,
		m.MeetProb(), m.MeanAlloc(), m.MaxAlloc(), len(o.Result.Trace))
	for _, row := range o.Result.Trace {
		fp += fmt.Sprintf("|t=%.2f rps=%.6f p99=%.6f drops=%d total=%.6f",
			row.Time, row.RPS, row.P99MS, row.Drops, row.Total)
	}
	return fp
}

// TestSerialParallelIdentical is the determinism regression test: the same
// suite executed with 1 worker and with 8 workers must yield bit-identical
// results — same resolved seeds, same QoS meters, same completed/dropped
// counts, same traces.
func TestSerialParallelIdentical(t *testing.T) {
	serial := Run(testSuite(true), Options{Workers: 1})
	parallel := Run(testSuite(true), Options{Workers: 8})
	if len(serial) != len(parallel) {
		t.Fatalf("outcome counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		sf, pf := fingerprint(serial[i]), fingerprint(parallel[i])
		if sf != pf {
			t.Errorf("spec %d diverges between 1 and 8 workers:\n  serial:   %s\n  parallel: %s",
				i, sf, pf)
		}
	}
}

func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed(7, "suite", "spec", 0)
	if a != DeriveSeed(7, "suite", "spec", 0) {
		t.Fatal("derivation is not deterministic")
	}
	seen := map[int64]string{}
	for i := 0; i < 100; i++ {
		for _, name := range []string{"a", "b"} {
			s := DeriveSeed(7, "suite", name, i)
			if s == 0 {
				t.Fatal("derived seed of 0 would re-trigger derivation")
			}
			key := fmt.Sprintf("%s/%d", name, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s and %s", prev, key)
			}
			seen[s] = key
		}
	}
	if DeriveSeed(7, "suite", "spec", 1) == a || DeriveSeed(8, "suite", "spec", 0) == a ||
		DeriveSeed(7, "other", "spec", 0) == a {
		t.Fatal("derivation ignores one of base/suite/index")
	}
}

// TestExplicitSeedsHonored: a non-zero spec seed is used verbatim; zero is
// derived and recorded on the outcome.
func TestExplicitSeedsHonored(t *testing.T) {
	app := apps.NewHotelReservation()
	mk := func() runner.Policy { return &runner.Static{Label: "static"} }
	s := Suite{Name: "seeds", BaseSeed: 3}
	s.Specs = append(s.Specs, RunSpec{Name: "pinned", App: app, Policy: mk, Pattern: workload.Constant(800), Duration: 5, Seed: 42})
	s.Specs = append(s.Specs, RunSpec{Name: "derived", App: app, Policy: mk, Pattern: workload.Constant(800), Duration: 5})
	outs := Run(s, Options{Workers: 2})
	if outs[0].Seed != 42 {
		t.Fatalf("pinned seed = %d", outs[0].Seed)
	}
	if want := DeriveSeed(3, "seeds", "derived", 1); outs[1].Seed != want {
		t.Fatalf("derived seed = %d, want %d", outs[1].Seed, want)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	got := Map(50, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d", i, v)
		}
	}
	if Map(0, 4, func(i int) int { return i }) != nil {
		t.Fatal("empty Map should return nil")
	}
}

// TestProgressOneLinePerRun: Options.Progress receives exactly one
// "harness: k/n name" line per run, counting k up from 1, each spec's name
// once, while the outcomes stay in spec order.
func TestProgressOneLinePerRun(t *testing.T) {
	app := apps.NewHotelReservation()
	mk := func() runner.Policy { return &runner.Static{Label: "static"} }
	s := Suite{Name: "progress", BaseSeed: 5}
	const n = 7
	for i := 0; i < n; i++ {
		s.Specs = append(s.Specs, RunSpec{Name: fmt.Sprintf("run%d", i), App: app, Policy: mk,
			Pattern: workload.Constant(600), Duration: 2})
	}
	var buf bytes.Buffer
	outs := Run(s, Options{Workers: 3, Progress: &buf})

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("%d progress lines, want %d:\n%s", len(lines), n, buf.String())
	}
	seen := map[string]bool{}
	for k, line := range lines {
		prefix := fmt.Sprintf("harness: %d/%d ", k+1, n)
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("line %d = %q, want prefix %q", k, line, prefix)
		}
		name := strings.TrimPrefix(line, prefix)
		if seen[name] {
			t.Fatalf("run %q reported twice", name)
		}
		seen[name] = true
	}
	for i, o := range outs {
		if o.Index != i || o.Spec.Name != s.Specs[i].Name {
			t.Fatalf("outcome %d is spec %d (%q)", i, o.Index, o.Spec.Name)
		}
		if !seen[o.Spec.Name] {
			t.Fatalf("run %q never reported", o.Spec.Name)
		}
	}
}
