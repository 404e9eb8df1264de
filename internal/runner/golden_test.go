package runner_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/baselines"
	"sinan/internal/cluster"
	"sinan/internal/faults"
	"sinan/internal/runner"
	"sinan/internal/sim"
	"sinan/internal/workload"
)

// The golden trajectories pin the event core's behaviour bit for bit: every
// digest below was recorded at commit 87da136, on the container/heap engine
// and the closure-per-stage call-tree executor, before the allocation-free
// core replaced them. A digest covers every field of every TraceRow (floats
// by their bits, as bench's traceDigest does) plus the run's completed and
// dropped totals, so one request finishing one event earlier or one RNG
// draw moving changes it. Do not re-record these to make a change pass: a
// mismatch means the simulated trajectory moved.
var goldenDigests = map[string]uint64{
	"social/static/1":            0x3ed8c6ca47254db6,
	"social/static/2":            0x9078b5681122af36,
	"social/static/3":            0x133e413d87e0d208,
	"social/autoscale/1":         0xa6cb4bf4a1f62d4f,
	"social/autoscale/2":         0xc261638812312ac2,
	"social/autoscale/3":         0xa7946379e7315d1a,
	"hotel/static/1":             0xc1833d0610b0d6f4,
	"hotel/static/2":             0x5d38bc58eab723a5,
	"hotel/static/3":             0x67e4b031a7e45fcd,
	"hotel/autoscale/1":          0x37355b693a1879f1,
	"hotel/autoscale/2":          0x018f1306a5059d2c,
	"hotel/autoscale/3":          0xb99a2523107200aa,
	"social-logsync/static/1":    0x4190bf48919aff98,
	"social-logsync/static/2":    0x514b79082f000992,
	"social-logsync/static/3":    0xc1701d30ec4324fe,
	"social-logsync/autoscale/1": 0x36dedcec052e3c58,
	"social-logsync/autoscale/2": 0x72ecb726ce0d51be,
	"social-logsync/autoscale/3": 0xc69fa83633cf2280,
	"hotel/faults-standard":      0x8f899104dd05460d,
	"hotel/frontend-crash":       0xc41a89586d98c9cb,
	"hotel/cpu-starved":          0xf9fdcb2c8e3703d8,
	"social/traced/rows":         0xace38d3c538e4253,
	"social/traced/spans":        0xb9c037891db9b618,
}

// goldenEvents pins run.sim.events — the events the engine executed — for
// the same runs. The counts were recorded when the counter was added (PR 21,
// on the engine of one-shots and timers; the handle engine before it executed
// the same events, since every Reschedule or At became one Set). They are a
// function of the trajectory alone: a simulator change that keeps the digests
// keeps these, and events per simulated second is then a fact, not a
// measurement.
var goldenEvents = map[string]int64{
	"social/autoscale/1": 73525,
	"social/autoscale/2": 72151,
	"social/autoscale/3": 71852,
	"hotel/autoscale/1":  539917,
	"hotel/autoscale/2":  541223,
	"hotel/autoscale/3":  540887,
}

func hashFloats(h hash.Hash64, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func runDigest(res *runner.Result) uint64 {
	h := fnv.New64a()
	for _, r := range res.Trace {
		deg := 0.0
		if r.Degraded {
			deg = 1
		}
		hashFloats(h, r.Time, r.RPS, r.P99MS, float64(r.Drops), r.PredP99MS, r.PViol, r.Total, deg, float64(r.Brownout))
		hashFloats(h, r.Alloc...)
	}
	hashFloats(h, float64(res.Completed), float64(res.Dropped))
	return h.Sum64()
}

func spanDigest(spans []cluster.Span) uint64 {
	h := fnv.New64a()
	for _, s := range spans {
		drop := 0.0
		if s.Dropped {
			drop = 1
		}
		h.Write([]byte(s.Tier))
		hashFloats(h, float64(s.Req), s.Enqueue, s.Start, s.End, drop)
	}
	return h.Sum64()
}

// bindFunc adapts a function to runner.FaultInjector, the one hook through
// which a test reaches the cluster a managed run builds for itself.
type bindFunc func(*sim.Engine, *cluster.Cluster)

func (f bindFunc) Bind(eng *sim.Engine, cl *cluster.Cluster) { f(eng, cl) }

func checkGolden(t *testing.T, name string, got uint64) {
	t.Helper()
	want, ok := goldenDigests[name]
	if !ok {
		t.Fatalf("%s: no golden digest", name)
	}
	if got != want {
		t.Errorf("%s: digest %#016x, golden %#016x", name, got, want)
	}
}

func TestGoldenTrajectories(t *testing.T) {
	type appCase struct {
		name     string
		app      *apps.App
		pattern  workload.Pattern
		duration float64
	}
	appCases := []appCase{
		{"social", apps.NewSocialNetwork(), workload.Diurnal{Min: 100, Max: 350, Period: 40}, 40},
		{"hotel", apps.NewHotelReservation(), workload.Diurnal{Min: 1000, Max: 3000, Period: 30}, 30},
		// The graph-Redis log-sync stall fires every 60 s, so this one must
		// run past the first stall and its recovery.
		{"social-logsync", apps.NewSocialNetwork(apps.WithLogSync()), workload.Diurnal{Min: 150, Max: 350, Period: 50}, 75},
	}
	policies := []struct {
		name string
		mk   func() runner.Policy
	}{
		{"static", func() runner.Policy { return &runner.Static{} }},
		{"autoscale", func() runner.Policy { return baselines.NewAutoScaleCons() }},
	}
	for _, ac := range appCases {
		for _, pc := range policies {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/%d", ac.name, pc.name, seed)
				t.Run(name, func(t *testing.T) {
					res := runner.Run(runner.Config{
						App: ac.app, Policy: pc.mk(), Pattern: ac.pattern,
						Duration: ac.duration, Seed: seed, KeepTrace: true,
					})
					if res.Completed == 0 {
						t.Fatal("no request completed")
					}
					checkGolden(t, name, runDigest(res))
					events := res.Metrics.Snapshot().Counters["run.sim.events"]
					if want, ok := goldenEvents[name]; ok && events != want {
						t.Errorf("%s: %d events executed, golden %d", name, events, want)
					}
				})
			}
		}
	}
}

// TestGoldenFaultsAndStarvation covers the paths a healthy run never takes:
// SetAliveFraction shrinking and restoring the slot pool (pumpWaiters), the
// wait queue under sustained saturation, and drops at a full admission
// queue.
func TestGoldenFaultsAndStarvation(t *testing.T) {
	hotel := apps.NewHotelReservation()
	load := workload.Diurnal{Min: 1000, Max: 2500, Period: 60}

	t.Run("faults-standard", func(t *testing.T) {
		const dur = 60
		in := faults.New(faults.Standard(7, dur, len(hotel.Tiers)))
		res := runner.Run(runner.Config{
			App: hotel, Policy: baselines.NewAutoScaleCons(), Pattern: load,
			Duration: dur, Seed: 11, KeepTrace: true, Faults: in,
		})
		if in.Counters().CrashWindows != 1 {
			t.Fatalf("crash windows = %d, want 1", in.Counters().CrashWindows)
		}
		checkGolden(t, "hotel/faults-standard", runDigest(res))
	})

	t.Run("frontend-crash", func(t *testing.T) {
		// Standard picks its crash tier at random; this plan takes the
		// frontend down to 2% of its 4096 slots so that requests queue for
		// the whole window and drain through pumpWaiters when it ends.
		plan := faults.Plan{Seed: 3, Events: []faults.Event{
			{Kind: faults.ReplicaCrash, Start: 10.25, End: 16.5, Tier: 0, Value: 0.02},
			{Kind: faults.ReplicaCrash, Start: 20, End: 22, Tier: 0, Value: 0},
		}}
		res := runner.Run(runner.Config{
			App: hotel, Policy: baselines.NewAutoScaleCons(), Pattern: load,
			Duration: 30, Seed: 12, KeepTrace: true, Faults: faults.New(plan),
		})
		var worst float64
		for _, r := range res.Trace {
			worst = math.Max(worst, r.P99MS)
		}
		if worst < 1000 {
			t.Fatalf("worst interval p99 %.0f ms: the crash never made requests queue", worst)
		}
		checkGolden(t, "hotel/frontend-crash", runDigest(res))
	})

	t.Run("cpu-starved", func(t *testing.T) {
		starved := *hotel
		starved.Tiers = append([]cluster.TierConfig(nil), hotel.Tiers...)
		init := make([]float64, len(starved.Tiers))
		for i := range starved.Tiers {
			starved.Tiers[i].MaxQueue = 48
			starved.Tiers[i].ConnsPerReplica = 16
			init[i] = starved.Tiers[i].MinCPU
		}
		res := runner.Run(runner.Config{
			App: &starved, Policy: &runner.Static{}, Pattern: workload.Constant(1500),
			Duration: 20, Seed: 13, KeepTrace: true, InitAlloc: init,
		})
		if res.Dropped == 0 || res.Completed == res.Dropped {
			t.Fatalf("completed %d, dropped %d: want some of each", res.Completed, res.Dropped)
		}
		checkGolden(t, "hotel/cpu-starved", runDigest(res))
	})
}

// TestGoldenSpans pins the sampled span list: the trace RNG's draws, the
// order spans are recorded in (children before parents, drops at once) and
// every timestamp in them.
func TestGoldenSpans(t *testing.T) {
	var spans cluster.SpanCollector
	res := runner.Run(runner.Config{
		App: apps.NewSocialNetwork(), Policy: baselines.NewAutoScaleCons(),
		Pattern:  workload.Diurnal{Min: 100, Max: 350, Period: 40},
		Duration: 30, Seed: 5, KeepTrace: true,
		Faults: bindFunc(func(_ *sim.Engine, cl *cluster.Cluster) { cl.EnableTracing(&spans, 0.3) }),
	})
	if len(spans.Spans) == 0 {
		t.Fatal("no span recorded")
	}
	checkGolden(t, "social/traced/rows", runDigest(res))
	checkGolden(t, "social/traced/spans", spanDigest(spans.Spans))
}
