package faults

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"sinan/internal/core"
	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// batchInputs builds a minimal input set whose only meaningful property is
// its batch dimension.
func batchInputs(b int) nn.Inputs {
	return nn.Inputs{RH: tensor.New(b, 1, 1, 1)}
}

func TestOverloadPlanDeterministicAndBounded(t *testing.T) {
	a := Overload(7, 300)
	b := Overload(7, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%+v\n%+v", a, b)
	}
	if reflect.DeepEqual(a.Events, Overload(8, 300).Events) {
		t.Fatal("different seeds should move the windows")
	}
	if len(a.Events) != 3 {
		t.Fatalf("overload plan has %d events, want 3", len(a.Events))
	}
	counts := map[Kind]int{}
	for _, e := range a.Events {
		counts[e.Kind]++
		if e.Start < 0 || e.End > 300 || e.End <= e.Start {
			t.Fatalf("window out of bounds: %+v", e)
		}
	}
	if counts[PredictorOverload] != 2 || counts[PredictorSlow] != 1 {
		t.Fatalf("plan composition wrong: %v", counts)
	}
}

// The overload window's shed probability scales with batch size: a full-size
// candidate batch is shed with certainty while a browned-out batch-of-one
// almost always gets through, paying a deterministic queueing cost reported
// via core.CostReporter.
func TestPredictorOverloadShedsByBatchSize(t *testing.T) {
	eng, cl := testCluster()
	inj, reg := attached(Plan{Seed: 1, Events: []Event{
		{Kind: PredictorOverload, Start: 10, End: 20, Value: 2.0},
	}})
	inj.Bind(eng, cl)
	base := &okPredictor{}
	p := inj.Predictor(base)
	cr, ok := p.(core.CostReporter)
	if !ok {
		t.Fatal("faulty predictor must implement core.CostReporter")
	}

	eng.Run(5)
	// Healthy calls — including the nil-input probes other tests use — pass
	// through and report zero cost.
	if _, _, err := p.PredictBatch(nil, nn.Inputs{}); err != nil {
		t.Fatalf("before window: %v", err)
	}
	if cr.LastPredictMS() != 0 {
		t.Fatalf("healthy cost = %v, want 0", cr.LastPredictMS())
	}

	eng.Run(15)
	// Value 2.0 × batch 64 / ShedRefBatch 64 = load 2.0 ≥ 1: certain shed.
	_, _, err := p.PredictBatch(nil, batchInputs(64))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("full batch under overload want ErrShed, got %v", err)
	}
	if !core.IsOverload(err) {
		t.Fatal("ErrShed must classify as overload for the scheduler")
	}
	// Batch-of-one probes: load 2/64 ≈ 0.03, so nearly all succeed.
	okCalls := 0
	for i := 0; i < 50; i++ {
		if _, _, err := p.PredictBatch(nil, batchInputs(1)); err == nil {
			okCalls++
			want := 2.0 / ShedRefBatch * inj.Deadline * 1000
			if math.Abs(cr.LastPredictMS()-want) > 1e-9 {
				t.Fatalf("survivor cost = %v ms, want %v", cr.LastPredictMS(), want)
			}
		} else if !errors.Is(err, ErrShed) {
			t.Fatalf("unexpected error kind under overload: %v", err)
		}
	}
	if okCalls < 40 {
		t.Fatalf("batch-1 under overload: only %d/50 succeeded", okCalls)
	}

	eng.Run(25)
	if _, _, err := p.PredictBatch(nil, batchInputs(64)); err != nil {
		t.Fatalf("after window: %v", err)
	}
	if cr.LastPredictMS() != 0 {
		t.Fatalf("post-window cost = %v, want 0", cr.LastPredictMS())
	}

	n := reg.Snapshot().Counters
	if n["faults.predictor.sheds"] < 1 || n["faults.predictor.errors"] != n["faults.predictor.sheds"] {
		t.Fatalf("counters: %v", n)
	}
}

// A sub-deadline slowdown reports its injected latency as the call cost, so
// the scheduler's SlowPredictMS budget sees it deterministically.
func TestPredictorSlowReportsCost(t *testing.T) {
	eng, cl := testCluster()
	inj := New(Plan{Seed: 1, Events: []Event{
		{Kind: PredictorSlow, Start: 10, End: 20, Value: 0.4},
	}})
	inj.Bind(eng, cl)
	p := inj.Predictor(&okPredictor{})
	cr := p.(core.CostReporter)

	eng.Run(15)
	if _, _, err := p.PredictBatch(nil, batchInputs(4)); err != nil {
		t.Fatalf("sub-deadline slowdown should answer: %v", err)
	}
	if cr.LastPredictMS() != 400 {
		t.Fatalf("slow cost = %v ms, want 400", cr.LastPredictMS())
	}
}
