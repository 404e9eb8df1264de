package predsvc

import (
	"math/rand"
	"sync"
	"testing"

	"sinan/internal/boost"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/lifecycle"
	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// serveHoldout pins a holdout whose targets are the live model's own
// predictions on random inputs: the live model replays it with RMSE ~0, a
// faithful re-encode of it passes the gate, and anything behaviorally
// different is rejected.
func serveHoldout(t testing.TB, m *core.HybridModel, rows int) *dataset.Dataset {
	t.Helper()
	d := m.D
	ds := dataset.New(d, m.K)
	ctx := core.NewPredictContext()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		rh := make([]float64, d.F*d.N*d.T)
		lh := make([]float64, d.T*d.M)
		rc := make([]float64, d.N)
		for j := range rh {
			rh[j] = rng.Float64()
		}
		for j := range lh {
			lh[j] = 40 + 20*rng.Float64()
		}
		for j := range rc {
			rc[j] = 1 + rng.Float64()
		}
		in := nn.Inputs{
			RH: tensor.FromSlice(rh, 1, d.F, d.N, d.T),
			LH: tensor.FromSlice(lh, 1, d.T, d.M),
			RC: tensor.FromSlice(rc, 1, d.N),
		}
		pred, _, err := m.PredictBatch(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		ds.Append(rh, lh, rc, append([]float64(nil), pred.Data...), false)
	}
	return ds
}

// poisonedHybrid trains the same architecture as tinyHybrid on absurd
// latency targets (~10000ms), yielding a well-formed model whose behavior
// is nothing like the live one — the class of candidate the gate exists to
// refuse.
func poisonedHybrid(t *testing.T) *core.HybridModel {
	t.Helper()
	d := nn.Dims{N: 4, T: 3, F: 6, M: 5}
	rng := rand.New(rand.NewSource(2))
	cnn := nn.NewLatencyCNN(rng, d, 8)
	n := 64
	in := nn.Inputs{
		RH: tensor.New(n, d.F, d.N, d.T),
		LH: tensor.New(n, d.T, d.M),
		RC: tensor.New(n, d.N),
	}
	y := tensor.New(n, d.M)
	for i := range in.RH.Data {
		in.RH.Data[i] = rng.Float64()
	}
	for i := range in.RC.Data {
		in.RC.Data[i] = 1 + rng.Float64()
	}
	for i := range y.Data {
		y.Data[i] = 1e4 + 10*rng.Float64()
	}
	tm := nn.Train(cnn, in, y, nn.TrainConfig{Epochs: 2, Batch: 16, QoSMS: 200, Seed: 2})
	X := [][]float64{{0.1}, {0.9}, {0.2}, {0.8}}
	for i := range X {
		row := make([]float64, 16)
		row[0] = X[i][0]
		X[i] = row
	}
	bt := boost.Train(X, []bool{false, true, false, true}, boost.Config{NumTrees: 5}, nil, nil)
	return &core.HybridModel{
		Lat: tm, Viol: bt, D: d, K: 5, QoSMS: 200,
		RMSEValid: 20, Pd: 0.1, Pu: 0.3,
	}
}

func encodeArtifact(t *testing.T, m *core.HybridModel) []byte {
	t.Helper()
	art, _, err := lifecycle.Encode(m, lifecycle.Manifest{Note: "test"})
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// The full gated update path over the wire: a faithful candidate installs,
// a poisoned one is refused by the gate, corrupt bytes are refused by the
// checksum, and the service never stops answering Predict through any of
// it. Rollback then restores the predecessor and refuses to run dry.
func TestUpdateModelGatedOverWire(t *testing.T) {
	live := tinyHybrid(t)
	guard, err := lifecycle.NewGate(lifecycle.GateConfig{Holdout: serveHoldout(t, live, 24)})
	if err != nil {
		t.Fatal(err)
	}
	srv, svc, err := ListenAndServeWith("127.0.0.1:0", live, ServiceOptions{Guard: guard})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialWith(srv.Addr().String(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := mkBatch(live.D, 3)

	// A faithful re-encode of the live model sails through the gate.
	good := encodeArtifact(t, live)
	rep, err := c.UpdateModel(good)
	if err != nil {
		t.Fatalf("good update rejected: %v (gate %+v)", err, rep.Gate)
	}
	if rep.Version != 2 || rep.Pending {
		t.Fatalf("good update: version %d pending %v, want 2/false", rep.Version, rep.Pending)
	}
	if rep.Gate.CandRMSE > rep.Gate.BoundRMSE {
		t.Fatalf("accepted candidate outside bound: %+v", rep.Gate)
	}
	if svc.live.Generation() != 2 {
		t.Fatalf("service generation %d, want 2", svc.live.Generation())
	}

	// The poisoned candidate is a valid artifact — checksum and dims all
	// check out — but the gate refuses its behavior.
	if _, err := c.UpdateModel(encodeArtifact(t, poisonedHybrid(t))); err == nil {
		t.Fatal("poisoned update accepted")
	} else if !IsUpdateRejected(err) {
		t.Fatalf("poisoned update error not classified as rejection: %v", err)
	}

	// Corrupt bytes die at the checksum, truncated ones at the envelope.
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-50] ^= 0x20
	if _, err := c.UpdateModel(corrupt); err == nil || !IsUpdateRejected(err) {
		t.Fatalf("corrupt artifact: %v", err)
	}
	if _, err := c.UpdateModel(good[:30]); err == nil || !IsUpdateRejected(err) {
		t.Fatalf("truncated artifact: %v", err)
	}
	if svc.live.Generation() != 2 {
		t.Fatalf("rejections changed the generation to %d", svc.live.Generation())
	}
	// Rejections keep the connection: predictions flow without a redial.
	before := c.Stats().Redials
	if _, _, err := c.PredictBatch(nil, in); err != nil {
		t.Fatalf("predict after rejections: %v", err)
	}
	if c.Stats().Redials != before {
		t.Fatal("rejection dropped the connection")
	}

	// Rollback restores the predecessor, then refuses an empty history.
	rb, err := c.Rollback()
	if err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if rb.Version != 3 || svc.live.Generation() != 3 {
		t.Fatalf("rollback generation %d/%d, want 3", rb.Version, svc.live.Generation())
	}
	if _, err := c.Rollback(); err == nil || !IsUpdateRejected(err) {
		t.Fatalf("rollback on empty history: %v", err)
	}
	if _, _, err := c.PredictBatch(nil, in); err != nil {
		t.Fatalf("predict after rollback: %v", err)
	}
}

// Shadow scoring over the wire: an accepted update parks, scores the
// configured number of live Predict batches, then promotes — and a
// rollback discards any candidate still in shadow.
func TestUpdateModelShadowPromotes(t *testing.T) {
	live := tinyHybrid(t)
	guard, err := lifecycle.NewGate(lifecycle.GateConfig{Holdout: serveHoldout(t, live, 16)})
	if err != nil {
		t.Fatal(err)
	}
	srv, svc, err := ListenAndServeWith("127.0.0.1:0", live, ServiceOptions{Guard: guard, ShadowCalls: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialWith(srv.Addr().String(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := mkBatch(live.D, 2)

	rep, err := c.UpdateModel(encodeArtifact(t, live))
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if !rep.Pending || rep.Version != 1 {
		t.Fatalf("update should park in shadow: %+v", rep)
	}
	if !svc.live.ShadowPending() {
		t.Fatal("no shadow candidate installed")
	}
	for i := 0; i < 3; i++ {
		if svc.live.Generation() != 1 {
			t.Fatalf("promoted after %d shadow calls, want 3", i)
		}
		if _, _, err := c.PredictBatch(nil, in); err != nil {
			t.Fatalf("predict %d during shadow: %v", i, err)
		}
	}
	if svc.live.Generation() != 2 || svc.live.ShadowPending() {
		t.Fatalf("shadow did not promote: generation %d pending %v", svc.live.Generation(), svc.live.ShadowPending())
	}

	// Park another candidate, then roll back: the shadow is discarded —
	// an operator override must not be followed by a surprise promotion.
	if rep, err = c.UpdateModel(encodeArtifact(t, live)); err != nil || !rep.Pending {
		t.Fatalf("second update: %+v %v", rep, err)
	}
	if _, err := c.Rollback(); err != nil {
		t.Fatalf("rollback during shadow: %v", err)
	}
	if svc.live.ShadowPending() {
		t.Fatal("rollback left a candidate in shadow")
	}
	for i := 0; i < 5; i++ {
		if _, _, err := c.PredictBatch(nil, in); err != nil {
			t.Fatalf("predict after rollback: %v", err)
		}
	}
	if svc.live.Generation() != 3 {
		t.Fatalf("discarded shadow still promoted: generation %d", svc.live.Generation())
	}
}

// A candidate whose dims differ from the served model's can never hot-swap:
// the update is refused before the gate runs, and nothing changes.
func TestUpdateModelRefusesDimsChange(t *testing.T) {
	svc := NewServiceWith(tinyHybrid(t), ServiceOptions{})
	shaped := poisonedHybrid(t)
	shaped.D.N++
	art, _, err := lifecycle.Encode(shaped, lifecycle.Manifest{})
	if err == nil {
		var reply UpdateModelReply
		err = svc.UpdateModel(&UpdateModelArgs{Artifact: art}, &reply)
	}
	if err == nil || !IsUpdateRejected(err) {
		t.Fatalf("dims change: %v, want a rejection", err)
	}
	if svc.live.Generation() != 1 {
		t.Fatalf("rejected update advanced the generation to %d", svc.live.Generation())
	}
}

// Swap, gated updates, rollbacks, and shadow resolution all racing a
// storm of Predicts: the prediction path must never error and the version
// accounting must stay coherent. Run under -race this is the lifecycle
// half of the "zero predictor unavailability" guarantee.
func TestLifecycleMutationsRacePredict(t *testing.T) {
	live := tinyHybrid(t)
	guard, err := lifecycle.NewGate(lifecycle.GateConfig{Holdout: serveHoldout(t, live, 8)})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewServiceWith(live, ServiceOptions{Guard: guard, ShadowCalls: 2, MaxConcurrent: -1})
	clone, _, err := lifecycle.Decode(encodeArtifact(t, live))
	if err != nil {
		t.Fatal(err)
	}
	art := encodeArtifact(t, live)
	in := mkBatch(live.D, 2)
	args := &PredictArgs{RH: in.RH.Data, LH: in.LH.Data, RC: in.RC.Data, Batch: 2}

	const predictors = 4
	var wg sync.WaitGroup
	errs := make(chan error, predictors)
	for p := 0; p < predictors; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var reply PredictReply
				if err := svc.Predict(args, &reply); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			switch i % 3 {
			case 0:
				svc.Swap(clone)
			case 1:
				var reply UpdateModelReply
				if err := svc.UpdateModel(&UpdateModelArgs{Artifact: art}, &reply); err != nil {
					errs <- err
					return
				}
			default:
				var reply RollbackReply
				// Empty history is legal here — mutations may have drained it.
				if err := svc.Rollback(&RollbackArgs{}, &reply); err != nil && !IsUpdateRejected(err) {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("lifecycle race: %v", err)
	}
	if v := svc.live.Generation(); v < 2 {
		t.Fatalf("generation never advanced: %d", v)
	}
}
