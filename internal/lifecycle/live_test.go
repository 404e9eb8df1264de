package lifecycle

import (
	"math"
	"testing"

	"sinan/internal/core"
	"sinan/internal/nn"
	"sinan/internal/tensor"
)

func liveFake(need float64) *fakeModel {
	return &fakeModel{d: nn.Dims{N: 4, T: 5, F: 6, M: 5}, qos: 200, eval: truthEval(200, need)}
}

// The rollback stack is bounded: beyond historyDepth installs the oldest
// displaced model falls off, and rollbacks walk back newest-first until the
// stack runs dry.
func TestLiveHistoryDepthDropsOldest(t *testing.T) {
	l := NewLive(liveFake(0), 1)
	for i := 1; i <= historyDepth+2; i++ {
		if v := l.Install(liveFake(float64(i))); v != i+1 {
			t.Fatalf("install %d got identity version %d, want %d", i, v, i+1)
		}
	}
	if len(l.history) != historyDepth {
		t.Fatalf("depth %d after %d installs, want %d", len(l.history), historyDepth+2, historyDepth)
	}
	// Live is v(depth+3); the stack holds the historyDepth versions below it.
	for want := historyDepth + 2; want > 2; want-- {
		if v, ok := l.Rollback(); !ok || v != want || l.Version() != want {
			t.Fatalf("rollback restored v%d (ok=%v, live v%d), want v%d", v, ok, l.Version(), want)
		}
	}
	if _, ok := l.Rollback(); ok {
		t.Fatal("versions 1 and 2 should have fallen off the bounded history")
	}
}

// Rollback with nothing displaced reports false and leaves the served
// model and its identity version exactly as they were.
func TestLiveRollbackOnEmptyChangesNothing(t *testing.T) {
	m := liveFake(0)
	l := NewLive(m, 7)
	if v, ok := l.Rollback(); ok || v != 0 {
		t.Fatalf("rollback on empty history = v%d, %v", v, ok)
	}
	if l.Current() != core.Predictor(m) || l.Version() != 7 || len(l.history) != 0 {
		t.Fatalf("empty rollback changed state: v%d depth %d", l.Version(), len(l.history))
	}
}

// The identity version names the model: rolling back restores the
// displaced model's version, and the next install never reuses a version.
func TestLiveRollbackRestoresVersion(t *testing.T) {
	first, second := liveFake(0), liveFake(1)
	l := NewLive(first, 1)
	l.Install(second)
	if l.Version() != 2 {
		t.Fatalf("after install: v%d, want v2", l.Version())
	}
	if v, ok := l.Rollback(); !ok || v != 1 {
		t.Fatalf("rollback = v%d, %v; want v1", v, ok)
	}
	if l.Current() != core.Predictor(first) || l.Version() != 1 {
		t.Fatalf("after rollback: v%d, want the first model at v1", l.Version())
	}
	if v := l.Install(second); v != 3 {
		t.Fatalf("reinstall got v%d, want v3", v)
	}
}

// A rollback is an override: whoever is auditioning is dropped, even when
// there is nothing to roll back to, and is never promoted afterwards.
func TestLiveRollbackDropsPendingShadow(t *testing.T) {
	l := NewLive(liveFake(0), 1)
	l.Shadow(liveFake(1))
	if l.shadow.Load() == nil {
		t.Fatal("no candidate in shadow")
	}
	if _, ok := l.Rollback(); ok {
		t.Fatal("rollback on empty history reported success")
	}
	if l.shadow.Load() != nil {
		t.Fatal("rollback left the candidate in shadow")
	}
	if _, _, ok := l.SettleShadow(); ok {
		t.Fatal("a dropped candidate settled")
	}
}

// spoiled answers like its fakeModel but overwrites one output afterwards.
type spoiled struct {
	*fakeModel
	spoil func(pred *tensor.Dense, pviol []float64)
}

func (s spoiled) PredictShared(ctx *core.PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	pred, pviol, err := s.fakeModel.PredictShared(ctx, in)
	s.spoil(pred, pviol)
	return pred, pviol, err
}

// The tap disqualifies on any non-finite output, not only a non-finite p99:
// a NaN violation probability or a NaN in a lower percentile column would
// poison the scheduler's filters just the same. A clean candidate settles
// clean, and the live model answers throughout.
func TestShadowTapDisqualifiesAnyNonFinite(t *testing.T) {
	hold := buildHoldout(nn.Dims{N: 4, T: 5, F: 6, M: 5}, 200, 8)
	in := nn.SharedInputs(hold.Inputs())
	ctx := core.NewPredictContext()
	for name, spoil := range map[string]func(*tensor.Dense, []float64){
		"NaN pviol, finite p99":   func(_ *tensor.Dense, pv []float64) { pv[1] = math.NaN() },
		"Inf pviol":               func(_ *tensor.Dense, pv []float64) { pv[0] = math.Inf(1) },
		"NaN in a non-p99 column": func(p *tensor.Dense, _ []float64) { p.Set(math.NaN(), 2, 0) },
	} {
		l := NewLive(liveFake(8), 1)
		l.Shadow(spoiled{liveFake(8), spoil})
		if _, _, err := l.PredictShared(ctx, in); err != nil {
			t.Fatalf("%s: live predict failed because of the candidate: %v", name, err)
		}
		if _, bad, ok := l.SettleShadow(); !ok || bad == nil {
			t.Fatalf("%s: settle = %v, %v; want an immediate disqualification", name, bad, ok)
		}
	}

	l := NewLive(liveFake(8), 1)
	cand := liveFake(8)
	l.Shadow(cand)
	for i := 0; i < 2; i++ {
		if _, _, err := l.PredictShared(ctx, in); err != nil {
			t.Fatalf("live predict %d with a clean candidate in shadow: %v", i, err)
		}
	}
	got, bad, ok := l.SettleShadow()
	if !ok || bad != nil || got != core.Predictor(cand) || l.shadow.Load() != nil {
		t.Fatalf("clean candidate after 2 calls: settle = %v, %v", bad, ok)
	}
}

// Live with a candidate in shadow answers exactly what its model answers, at
// W = 1 and at W = B: the tap scores on a context of its own, so the
// caller's answer is the model's, bit for bit. The W = 1 query is answered
// like W = B over its window repeated.
func TestLiveWithShadowAnswersLikeItsModel(t *testing.T) {
	m := trainedHybrid(t)
	d := m.D
	full := nn.SharedInputs(lcSynthDataset(2, 6).Inputs())
	one := nn.SharedInputs{
		RH: tensor.FromSlice(full.RH.Data[:d.F*d.N*d.T], 1, d.F, d.N, d.T),
		LH: tensor.FromSlice(full.LH.Data[:d.T*d.M], 1, d.T, d.M),
		RC: full.RC,
	}
	var expanded nn.Inputs
	one.Expand(&expanded)
	for name, c := range map[string]struct{ in, ref nn.SharedInputs }{
		"W = 1": {one, nn.SharedInputs(expanded)},
		"W = B": {full, full},
	} {
		wantLat, wantPV, err := m.PredictShared(nil, c.ref)
		if err != nil {
			t.Fatal(err)
		}
		l := NewLive(m, 1)
		l.Shadow(m)
		gotLat, gotPV, err := l.PredictShared(core.NewPredictContext(), c.in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, w := range wantLat.Data {
			if gotLat.Data[i] != w {
				t.Fatalf("%s: lat[%d] = %v, model alone %v", name, i, gotLat.Data[i], w)
			}
		}
		for i, w := range wantPV {
			if gotPV[i] != w {
				t.Fatalf("%s: pviol[%d] = %v, model alone %v", name, i, gotPV[i], w)
			}
		}
		if _, bad, ok := l.SettleShadow(); !ok || bad != nil {
			t.Fatalf("%s: the candidate settled %v, %v; want clean", name, bad, ok)
		}
	}
}
