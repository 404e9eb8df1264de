package core

import (
	"math/rand"
	"sync"
	"testing"

	"sinan/internal/boost"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/tensor"
)

// tinyHotelHybrid builds a small but real hybrid model sized for the hotel
// application's tier count, so it can drive a Scheduler in tests.
func tinyHotelHybrid(t testing.TB) *HybridModel {
	t.Helper()
	app := testApp()
	d := nn.Dims{N: len(app.Tiers), T: 5, F: 6, M: 5}
	rng := rand.New(rand.NewSource(1))
	const latent = 8
	cnn := nn.NewLatencyCNN(rng, d, latent)
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
		y.Data[i] = 50 + 10*rng.Float64()
	}
	tm := nn.Train(cnn, in, y, nn.TrainConfig{Epochs: 2, Batch: 16, QoSMS: 200, Seed: 1})

	X := make([][]float64, 4)
	for i := range X {
		X[i] = make([]float64, latent+2*d.N)
		X[i][0] = float64(i) / 4
	}
	bt := boost.Train(X, []bool{false, true, false, true}, boost.Config{NumTrees: 5}, nil, nil)
	return &HybridModel{
		Lat: tm, Viol: bt, D: d, K: 5, QoSMS: 200,
		RMSEValid: 20, Pd: 0.1, Pu: 0.3,
	}
}

func hybridQueryBatch(d nn.Dims, b int) nn.Inputs {
	in := nn.Inputs{
		RH: tensor.New(b, d.F, d.N, d.T),
		LH: tensor.New(b, d.T, d.M),
		RC: tensor.New(b, d.N),
	}
	for i := range in.RH.Data {
		in.RH.Data[i] = float64(i%13) * 0.1
	}
	for i := range in.RC.Data {
		in.RC.Data[i] = 2
	}
	return in
}

// One shared HybridModel queried concurrently from many goroutines, each
// holding its own PredictContext, must agree bit-for-bit with a serial
// query. Under -race this also proves inference never mutates the model.
func TestSharedHybridConcurrentPredictBitIdentical(t *testing.T) {
	m := tinyHotelHybrid(t)
	in := hybridQueryBatch(m.D, 50)
	wantLat, wantPV, _ := m.PredictBatch(nil, in)
	wantLat = wantLat.Clone()
	wantPV = append([]float64(nil), wantPV...)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := NewPredictContext()
			for iter := 0; iter < 5; iter++ {
				lat, pv, _ := m.PredictBatch(ctx, in)
				for i := range wantLat.Data {
					if lat.Data[i] != wantLat.Data[i] {
						t.Errorf("latency diverges at %d: %v vs %v", i, lat.Data[i], wantLat.Data[i])
						return
					}
				}
				for i := range wantPV {
					if pv[i] != wantPV[i] {
						t.Errorf("pviol diverges at %d: %v vs %v", i, pv[i], wantPV[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// The scheduler's per-interval work — Table 1 enumeration, window assembly,
// candidate views, CNN forward, BT scoring — runs on buffers owned by the
// scheduler and its PredictContext, so the model query allocates nothing in
// steady state. Nor does a whole Decide, model-driven or on the emergency
// ramp: the history rows are written over the rows they evict and
// Decision.Alloc alternates between two scheduler buffers (3 objects per
// decision while those were fresh; ~180 when every candidate row was its
// own slice).
func TestSchedulerPredictSteadyStateAllocs(t *testing.T) {
	app := testApp()
	m := tinyHotelHybrid(t)
	s := NewScheduler(app, m, SchedulerOptions{})
	alloc := mkAlloc(app, 2)
	for i := 0; i < m.D.T+1; i++ {
		s.Decide(stateFor(app, 20, alloc, 0.3))
	}
	st := stateFor(app, 20, alloc, 0.3)
	o := obsFor(app, st)

	query := func() {
		enumerate(s.cands, o)
		s.score()
	}
	query() // warm the context and candidate tensors
	if allocs := testing.AllocsPerRun(10, query); allocs > 2 {
		t.Fatalf("steady-state enumerate+score allocates %.0f objects per query, want ~0", allocs)
	}
	scored := s.CandidatesScored()
	if allocs := testing.AllocsPerRun(10, func() { s.Decide(st) }); allocs > 0 {
		t.Fatalf("steady-state Decide allocates %.0f objects per decision, want 0", allocs)
	} else {
		t.Logf("Decide: %.0f objects per decision", allocs)
	}
	if s.CandidatesScored() == scored {
		t.Fatal("the measured decisions never queried the model")
	}

	// A violation inside the post-emergency cool-down takes the ramp
	// (boosted), which writes its allocation like a commit does.
	hot := stateFor(app, 10*m.QoSMS, alloc, 0.3)
	var dec runner.Decision
	ramp := func() {
		s.carried.cooldown = 1
		dec = s.Decide(hot)
	}
	if allocs := testing.AllocsPerRun(10, ramp); allocs > 0 {
		t.Fatalf("an emergency Decide allocates %.0f objects, want 0", allocs)
	}
	if dec.PViol != 1 || total(dec.Alloc) <= total(alloc) {
		t.Fatalf("the measured decisions did not ramp: %+v", dec)
	}
}
