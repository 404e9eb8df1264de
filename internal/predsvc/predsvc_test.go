package predsvc

import (
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"

	"sinan/internal/boost"
	"sinan/internal/core"
	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// tinyHybrid builds a small but real hybrid model for serving tests.
func tinyHybrid(t *testing.T) *core.HybridModel {
	t.Helper()
	d := nn.Dims{N: 4, T: 3, F: 6, M: 5}
	rng := rand.New(rand.NewSource(1))
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
		y.Data[i] = 50 + 10*rng.Float64()
	}
	tm := nn.Train(cnn, in, y, nn.TrainConfig{Epochs: 2, Batch: 16, QoSMS: 200, Seed: 1})

	X := [][]float64{{0.1}, {0.9}, {0.2}, {0.8}}
	// Widen to latent+2N features to match btRow width (8 + 2*4 = 16).
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

func mkBatch(d nn.Dims, b int) nn.Inputs {
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

func TestRemotePredictionMatchesLocal(t *testing.T) {
	m := tinyHybrid(t)
	l, _, err := ListenAndServe("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if c.Meta() != m.Meta() {
		t.Fatalf("remote meta %+v != local %+v", c.Meta(), m.Meta())
	}

	in := mkBatch(m.D, 7)
	wantLat, wantPV, err := m.PredictBatch(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	gotLat, gotPV, err := c.PredictBatch(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantLat.Data {
		if math.Abs(wantLat.Data[i]-gotLat.Data[i]) > 1e-9 {
			t.Fatalf("latency mismatch at %d: %v vs %v", i, gotLat.Data[i], wantLat.Data[i])
		}
	}
	for i := range wantPV {
		if math.Abs(wantPV[i]-gotPV[i]) > 1e-9 {
			t.Fatalf("pviol mismatch at %d", i)
		}
	}
}

func TestServiceRejectsMalformedBatch(t *testing.T) {
	m := tinyHybrid(t)
	svc := NewServiceWith(m, ServiceOptions{})
	var reply PredictReply
	err := svc.Predict(&PredictArgs{Batch: 2, RH: []float64{1}, LH: nil, RC: nil}, &reply)
	if err == nil {
		t.Fatal("malformed batch should be rejected")
	}
	if err := svc.Predict(&PredictArgs{Batch: 0}, &reply); err == nil {
		t.Fatal("zero batch should be rejected")
	}
}

func TestSwapReplacesModel(t *testing.T) {
	m1 := tinyHybrid(t)
	svc := NewServiceWith(m1, ServiceOptions{})
	var meta MetaReply
	if err := svc.Meta(&struct{}{}, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Meta.Pu != 0.3 {
		t.Fatalf("pu = %v", meta.Meta.Pu)
	}
	m2 := tinyHybrid(t)
	m2.Pu = 0.77
	svc.Swap(m2)
	if err := svc.Meta(&struct{}{}, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Meta.Pu != 0.77 {
		t.Fatal("swap did not take effect")
	}
}

func TestClientIsSchedulerPredictor(t *testing.T) {
	// Compile-time and runtime check: the remote client satisfies the
	// scheduler's Predictor interface.
	var _ core.Predictor = (*Client)(nil)

	m := tinyHybrid(t)
	l, _, err := ListenAndServe("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var p core.Predictor = c
	if p.Meta().QoSMS != 200 {
		t.Fatal("predictor interface broken")
	}
}

// Concurrent Predict calls through the shared service — exercising the
// context pool and the atomic model pointer — must all produce the serial
// answer. Under -race this doubles as the service's thread-safety proof.
func TestServiceConcurrentPredict(t *testing.T) {
	const workers = 8
	m := tinyHybrid(t)
	// Size the gate to the test's own concurrency: this test proves the
	// model/context-pool thread safety, not admission control (which would
	// shed under 8 callers on a small GOMAXPROCS).
	svc := NewServiceWith(m, ServiceOptions{MaxConcurrent: workers})
	in := mkBatch(m.D, 7)
	args := &PredictArgs{RH: in.RH.Data, LH: in.LH.Data, RC: in.RC.Data, Batch: 7}
	var want PredictReply
	if err := svc.Predict(args, &want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				var reply PredictReply
				if err := svc.Predict(args, &reply); err != nil {
					t.Error(err)
					return
				}
				for i := range want.Lat {
					if reply.Lat[i] != want.Lat[i] {
						t.Errorf("concurrent reply diverges at %d", i)
						return
					}
				}
				for i := range want.PViol {
					if reply.PViol[i] != want.PViol[i] {
						t.Errorf("concurrent pviol diverges at %d", i)
						return
					}
				}
			}
		}()
	}
	// Concurrent metadata reads hit the atomic model pointer as well.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 20; iter++ {
			var mr MetaReply
			if err := svc.Meta(&struct{}{}, &mr); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dialing a closed port should fail")
	}
	_ = net.Listener(nil)
}
