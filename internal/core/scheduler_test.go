package core

import (
	"testing"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/metrics"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/tensor"
)

// fakeModel predicts latency and violation probability as functions of the
// candidate's total allocation: below needCores the system "will violate".
type fakeModel struct {
	d         nn.Dims
	qos       float64
	rmse      float64
	needCores float64
}

func (f *fakeModel) Meta() ModelMeta {
	return ModelMeta{D: f.d, QoSMS: f.qos, RMSEValid: f.rmse, Pd: 0.25, Pu: 0.5}
}

func (f *fakeModel) PredictShared(_ *PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	b := in.Batch()
	pred := tensor.New(b, f.d.M)
	pv := make([]float64, b)
	for i := 0; i < b; i++ {
		total := 0.0
		for _, v := range in.RC.Data[i*f.d.N : (i+1)*f.d.N] {
			total += v
		}
		lat := 20.0
		if total < f.needCores {
			lat = f.qos * 2
		}
		for m := 0; m < f.d.M; m++ {
			pred.Set(lat, i, m)
		}
		if total < f.needCores {
			pv[i] = 0.95
		} else {
			pv[i] = 0.01
		}
	}
	return pred, pv, nil
}

func testApp() *apps.App { return apps.NewHotelReservation() }

func stateFor(app *apps.App, p99 float64, alloc []float64, usageFrac float64) runner.State {
	stats := make([]cluster.Stats, len(alloc))
	for i := range stats {
		stats[i] = cluster.Stats{CPUUsage: alloc[i] * usageFrac, CPULimit: alloc[i], RSS: 100, Cache: 50}
	}
	var perc metrics.Percentiles
	for i := range perc.Values {
		perc.Values[i] = p99 * (0.9 + 0.025*float64(i))
	}
	perc.Values[metrics.NumPercentiles-1] = p99
	perc.Count = 100
	return runner.State{Stats: stats, Perc: perc, Alloc: alloc, RPS: 100, QoSMS: app.QoSMS}
}

func warmScheduler(app *apps.App, f *fakeModel, alloc []float64) *Scheduler {
	s := NewScheduler(app, f, SchedulerOptions{})
	for i := 0; i < f.d.T; i++ {
		s.Decide(stateFor(app, 20, alloc, 0.3))
	}
	return s
}

func mkAlloc(app *apps.App, v float64) []float64 {
	alloc := make([]float64, len(app.Tiers))
	for i := range alloc {
		alloc[i] = v
	}
	return alloc
}

func TestSchedulerBootstrapHolds(t *testing.T) {
	app := testApp()
	f := &fakeModel{d: nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}, qos: 200, rmse: 10, needCores: 10}
	s := NewScheduler(app, f, SchedulerOptions{})
	alloc := mkAlloc(app, 4)
	for i := 0; i < f.d.T-1; i++ {
		dec := s.Decide(stateFor(app, 20, alloc, 0.3))
		for j := range dec.Alloc {
			if dec.Alloc[j] != alloc[j] {
				t.Fatal("scheduler should hold while bootstrapping")
			}
		}
	}
}

func TestSchedulerReclaimsWhenSafe(t *testing.T) {
	app := testApp()
	f := &fakeModel{d: nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}, qos: 200, rmse: 10, needCores: 10}
	alloc := mkAlloc(app, 4) // total = 68 cores, far above needCores
	s := warmScheduler(app, f, alloc)
	dec := s.Decide(stateFor(app, 20, alloc, 0.3))
	if total(dec.Alloc) >= total(alloc) {
		t.Fatalf("scheduler should reclaim: %v → %v", total(alloc), total(dec.Alloc))
	}
	if dec.PredP99MS <= 0 {
		t.Fatal("decision should carry the model's latency prediction")
	}
}

func TestSchedulerConvergesAboveNeed(t *testing.T) {
	app := testApp()
	f := &fakeModel{d: nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}, qos: 200, rmse: 10, needCores: 20}
	alloc := mkAlloc(app, 4)
	s := warmScheduler(app, f, alloc)
	for i := 0; i < 300; i++ {
		dec := s.Decide(stateFor(app, 20, alloc, 0.3))
		alloc = dec.Alloc
	}
	if total(alloc) < f.needCores {
		t.Fatalf("scheduler dropped below the safe boundary: %v < %v", total(alloc), f.needCores)
	}
	// It should settle near the boundary, not stay grossly overprovisioned.
	if total(alloc) > f.needCores*1.5 {
		t.Fatalf("scheduler failed to reclaim toward the boundary: %v", total(alloc))
	}
}

// rampedScheduler is a warm scheduler that has just taken the emergency
// ramp on a violation its model did not predict, so the cool-down is armed.
// It returns the ramped allocation.
func rampedScheduler(t *testing.T, app *apps.App, f *fakeModel, alloc []float64) (*Scheduler, []float64) {
	t.Helper()
	s := warmScheduler(app, f, alloc)
	// A model-driven decision first, so its prediction (~20 ms) is held
	// against the next interval's outcome.
	dec := s.Decide(stateFor(app, 20, alloc, 0.3))
	prev := dec.Alloc
	dec = s.Decide(stateFor(app, 500, prev, 0.9))
	if s.carried.mispredicted != 1 {
		t.Fatalf("misprediction counter = %d, want the ramp taken", s.carried.mispredicted)
	}
	return s, append([]float64(nil), dec.Alloc...)
}

// The tail past QoS forbids reclaiming even where the surprise path cannot
// fire: in the first interval after a cool-down no prediction is held
// against the outcome, so a violation there reaches choose, and the model
// still calls every reclaim safe.
func TestSchedulerNoReclaimWhenHot(t *testing.T) {
	app := testApp()
	f := &fakeModel{d: nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}, qos: 200, rmse: 10, needCores: 10}
	s, alloc := rampedScheduler(t, app, f, mkAlloc(app, 4))
	for i := 0; i < victimWindow; i++ {
		alloc = s.Decide(stateFor(app, 20, alloc, 0.3)).Alloc
	}
	dec := s.Decide(stateFor(app, 350, alloc, 0.3))
	if s.carried.mispredicted != 1 || dec.PViol != 0.01 {
		t.Fatalf("the interval should be decided by choose (mispredictions %d, pviol %v)", s.carried.mispredicted, dec.PViol)
	}
	if total(dec.Alloc) < total(alloc) {
		t.Fatal("reclaimed resources while tail latency was above QoS")
	}
}

// An unpredicted violation doubles every tier (plus half a core, so tiers
// at the floor move), on the grid and in bounds — a geometric ramp, not a
// jump to the maximum — and the ramp continues while the violation persists
// during the cool-down.
func TestSchedulerSafetyUpscaleOnMispredictedViolation(t *testing.T) {
	app := testApp()
	f := &fakeModel{d: nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}, qos: 200, rmse: 10, needCores: 10}
	alloc := mkAlloc(app, 2)
	s := warmScheduler(app, f, alloc)
	// Normal decision first: model predicts ~20ms.
	dec := s.Decide(stateFor(app, 20, alloc, 0.3))
	prev := append([]float64(nil), dec.Alloc...)
	dec = s.Decide(stateFor(app, 500, prev, 0.9))
	for i, a := range dec.Alloc {
		if want := app.Tiers[i].ClampCPU(2*prev[i] + 0.5); a != want {
			t.Fatalf("safety upscale: tier %d at %v, want exactly %v (2 × %v + 0.5 on the grid)", i, a, want, prev[i])
		}
	}
	if s.carried.mispredicted != 1 {
		t.Fatalf("misprediction counter = %d", s.carried.mispredicted)
	}
	// Still violating inside the cool-down: the ramp keeps going up.
	prev = dec.Alloc
	dec = s.Decide(stateFor(app, 500, prev, 0.9))
	for i := range dec.Alloc {
		if dec.Alloc[i] < prev[i] {
			t.Fatalf("cool-down ramp reversed at tier %d", i)
		}
	}
}

// After a ramp the scheduler holds for victimWindow intervals while the
// queues drain and the history window refills, although the tail is back
// under QoS and the model calls a reclaim safe; the interval after that is
// the model's again.
func TestSchedulerCoolDownHoldsAfterRamp(t *testing.T) {
	app := testApp()
	f := &fakeModel{d: nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}, qos: 200, rmse: 10, needCores: 10}
	s, alloc := rampedScheduler(t, app, f, mkAlloc(app, 4))
	for i := 0; i < victimWindow; i++ {
		dec := s.Decide(stateFor(app, 20, alloc, 0.3))
		for j := range dec.Alloc {
			if dec.Alloc[j] != alloc[j] {
				t.Fatalf("cool-down interval %d changed tier %d: %v → %v", i, j, alloc[j], dec.Alloc[j])
			}
		}
	}
	if dec := s.Decide(stateFor(app, 20, alloc, 0.3)); total(dec.Alloc) >= total(alloc) {
		t.Fatalf("no reclaim once the cool-down ended: %v → %v", total(alloc), total(dec.Alloc))
	}
}

// Past trustThreshold missed violations the scheduler stops reclaiming: a
// calm interval the model calls safe to shrink in is held instead.
func TestSchedulerStopsReclaimingPastTrustThreshold(t *testing.T) {
	app := testApp()
	f := &fakeModel{d: nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}, qos: 200, rmse: 10, needCores: 10}
	alloc := mkAlloc(app, 4)
	s := warmScheduler(app, f, alloc)
	calm := stateFor(app, 150, alloc, 0.3) // not ultra safe, so p_d is what trust makes it
	modelDriven := func() runner.Decision {
		for { // through a cool-down to an interval the model decides
			if dec := s.Decide(calm); dec.PredP99MS != 0 {
				return dec
			}
		}
	}
	for i := 0; i <= trustThreshold; i++ {
		if dec := modelDriven(); total(dec.Alloc) >= total(alloc) {
			t.Fatalf("after %d mispredictions the model should still reclaim: %v → %v", s.carried.mispredicted, total(alloc), total(dec.Alloc))
		}
		s.Decide(stateFor(app, 500, alloc, 0.3)) // the violation its calm prediction missed
	}
	if dec := modelDriven(); total(dec.Alloc) < total(alloc) {
		t.Fatalf("reclaimed after %d mispredictions: %v → %v", s.carried.mispredicted, total(alloc), total(dec.Alloc))
	}
}

func TestSchedulerScalesUpWhenModelWarns(t *testing.T) {
	app := testApp()
	f := &fakeModel{d: nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}, qos: 200, rmse: 10, needCores: 40}
	alloc := mkAlloc(app, 2) // total 34 < 40 needed
	s := warmScheduler(app, f, alloc)
	dec := s.Decide(stateFor(app, 150, alloc, 0.7))
	if total(dec.Alloc) <= total(alloc) {
		t.Fatalf("scheduler should scale up toward the boundary: %v → %v",
			total(alloc), total(dec.Alloc))
	}
}

func TestSchedulerUtilCapBlocksDownscale(t *testing.T) {
	app := testApp()
	f := &fakeModel{d: nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}, qos: 200, rmse: 10, needCores: 0}
	alloc := mkAlloc(app, 1)
	s := warmScheduler(app, f, alloc)
	// The gentlest cut takes a 1.0-core tier to 0.9. At 55% utilization that
	// lands at 0.61, past the default cap of 0.6, so nothing may shrink; at
	// 53% it lands at 0.59 and the reclaim goes ahead.
	dec := s.Decide(stateFor(app, 20, alloc, 0.55))
	if total(dec.Alloc) < total(alloc) {
		t.Fatal("downscale allowed past the utilization cap")
	}
	dec = s.Decide(stateFor(app, 20, alloc, 0.53))
	if total(dec.Alloc) >= total(alloc) {
		t.Fatal("downscale refused under the utilization cap")
	}
}

func TestSchedulerCandidateEnumeration(t *testing.T) {
	app := testApp()
	c := newCandidates(len(app.Tiers))
	enumerate(c, obsFor(app, stateFor(app, 20, mkAlloc(app, 4), 0.3)))
	var kinds [6]int
	for _, k := range c.kind {
		kinds[k]++
	}
	if kinds[kindHold] != 1 {
		t.Fatalf("hold candidates = %d", kinds[kindHold])
	}
	if kinds[kindDown] == 0 || kinds[kindUp] == 0 || kinds[kindUpAll] != 1 {
		t.Fatalf("missing Table 1 categories: %v", kinds)
	}
	if kinds[kindDownBatch] == 0 {
		t.Fatalf("no batch downscale candidates: %v", kinds)
	}
	// Allocation quantisation: all candidates on the 0.1-core grid within
	// bounds.
	for r := range c.kind {
		for i, a := range c.row(r) {
			if a != app.Tiers[i].ClampCPU(a) {
				t.Fatalf("candidate %d off the grid or out of bounds: tier %d = %v", r, i, a)
			}
		}
	}
}

func TestSchedulerVictimTracking(t *testing.T) {
	app := testApp()
	f := &fakeModel{d: nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}, qos: 200, rmse: 10, needCores: 10}
	alloc := mkAlloc(app, 4)
	s := warmScheduler(app, f, alloc)
	dec := s.Decide(stateFor(app, 20, alloc, 0.3)) // reclaims something
	downscaled := -1
	for i := range dec.Alloc {
		if dec.Alloc[i] < alloc[i] {
			downscaled = i
		}
	}
	if downscaled < 0 {
		t.Fatal("expected a downscale")
	}
	// A victim candidate must now exist.
	o := obsFor(app, stateFor(app, 20, dec.Alloc, 0.3))
	o.downAge = s.carried.downAge
	c := newCandidates(len(app.Tiers))
	enumerate(c, o)
	found := false
	for r, k := range c.kind {
		if k == kindUpVictim && c.row(r)[downscaled] > dec.Alloc[downscaled] {
			found = true
		}
	}
	if !found {
		t.Fatal("no victim re-inflation candidate after downscale")
	}
}

func total(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
