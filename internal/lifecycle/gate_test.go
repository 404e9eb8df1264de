package lifecycle

import (
	"math"
	"strings"
	"testing"

	"sinan/internal/nn"
)

var gateDims = nn.Dims{N: 4, T: 5, F: 6, M: 5}

func newTestGate(t *testing.T, qos, trueNeed float64) *Gate {
	t.Helper()
	g, err := NewGate(GateConfig{Holdout: buildHoldout(gateDims, qos, trueNeed)})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGateAcceptsAccurateCandidate(t *testing.T) {
	qos := 200.0
	g := newTestGate(t, qos, 8)
	stale := &fakeModel{d: gateDims, qos: qos, eval: truthEval(qos, 5)} // wrong need: bad holdout RMSE
	good := &fakeModel{d: gateDims, qos: qos, eval: truthEval(qos, 8)}  // matches ground truth

	rep, err := g.Validate(stale, good)
	if err != nil {
		t.Fatalf("accurate candidate rejected: %v (report %+v)", err, rep)
	}
	if rep.CandRMSE >= rep.LiveRMSE {
		t.Fatalf("candidate RMSE %.1f not better than stale live %.1f", rep.CandRMSE, rep.LiveRMSE)
	}
	if rep.Rows != g.rows || rep.Rows == 0 {
		t.Fatalf("gate replayed %d rows", rep.Rows)
	}
}

func TestGateRejectsPoisonedCandidate(t *testing.T) {
	qos := 200.0
	g := newTestGate(t, qos, 8)
	live := &fakeModel{d: gateDims, qos: qos, eval: truthEval(qos, 8)}
	poisoned := &fakeModel{d: gateDims, qos: qos, eval: func(float64, bool) (float64, float64) {
		return 1e5, 0.5
	}}
	rep, err := g.Validate(live, poisoned)
	if err == nil {
		t.Fatalf("poisoned candidate passed the gate: %+v", rep)
	}
	if rep.CandRMSE <= rep.BoundRMSE {
		t.Fatalf("rejection without exceeding bound: %+v", rep)
	}
	if !strings.Contains(err.Error(), "exceeds bound") {
		t.Fatalf("unexpected rejection reason: %v", err)
	}
}

func TestGateRejectsNonFiniteCandidate(t *testing.T) {
	qos := 200.0
	g := newTestGate(t, qos, 8)
	live := &fakeModel{d: gateDims, qos: qos, eval: truthEval(qos, 8)}
	nan := &fakeModel{d: gateDims, qos: qos, eval: func(float64, bool) (float64, float64) {
		return math.NaN(), 0.5
	}}
	if _, err := g.Validate(live, nan); err == nil {
		t.Fatal("NaN candidate passed the gate")
	}
}

func TestGateRejectsShapeChange(t *testing.T) {
	qos := 200.0
	g := newTestGate(t, qos, 8)
	live := &fakeModel{d: gateDims, qos: qos, eval: truthEval(qos, 8)}
	other := gateDims
	other.N++
	cand := &fakeModel{d: other, qos: qos, eval: truthEval(qos, 8)}
	if _, err := g.Validate(live, cand); err == nil {
		t.Fatal("dims change passed the gate")
	}
	if _, err := g.Validate(live, nil); err == nil {
		t.Fatal("nil candidate passed the gate")
	}
}

func TestGatePinsHoldoutPrefix(t *testing.T) {
	qos := 200.0
	hold := buildHoldout(gateDims, qos, 8)
	g, err := NewGate(GateConfig{Holdout: hold, MaxRows: 10})
	if err != nil {
		t.Fatal(err)
	}
	if g.rows != 10 {
		t.Fatalf("MaxRows 10 pinned %d rows", g.rows)
	}
	if _, err := NewGate(GateConfig{}); err == nil {
		t.Fatal("gate built without a holdout")
	}
}
