package predsvc

import (
	"math"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"

	"sinan/internal/boost"
	"sinan/internal/core"
	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// tinyHybrid builds a small but real hybrid model for serving tests.
func tinyHybrid(t testing.TB) *core.HybridModel {
	t.Helper()
	return hybridOf(t, nn.Dims{N: 4, T: 3, F: 6, M: 5})
}

// hybridOf is tinyHybrid at any dims.
func hybridOf(t testing.TB, d nn.Dims) *core.HybridModel {
	t.Helper()
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
		row := make([]float64, 8+2*d.N)
		row[0] = X[i][0]
		X[i] = row
	}
	bt := boost.Train(X, []bool{false, true, false, true}, boost.Config{NumTrees: 5}, nil, nil)
	return &core.HybridModel{
		Lat: tm, Viol: bt, D: d, K: 5, QoSMS: 200,
		RMSEValid: 20, Pd: 0.1, Pu: 0.3,
	}
}

// mkBatch builds a query of b candidates with one history window each
// (W = B); mkShared is the W = 1 form.
func mkBatch(d nn.Dims, b int) nn.SharedInputs {
	in := nn.SharedInputs{
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
	wantLat, wantPV, err := m.PredictShared(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	gotLat, gotPV, err := c.PredictShared(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "lat", gotLat.Data, wantLat.Data)
	requireSameBits(t, "pviol", gotPV, wantPV)
	requireRawBitsOnTheWire(t, mkBatch)
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d floats, want %d", what, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("%s[%d] = %#016x (%v), want %#016x (%v)", what, i, g, got[i], w, want[i])
		}
	}
}

// bitsSinan records the floats of the last predict as the handler saw them
// and answers with floats of the test's choosing.
type bitsSinan struct {
	unknownSinan
	meta  core.ModelMeta
	got   PredictArgs
	reply PredictReply
}

func (s *bitsSinan) Meta(_ *struct{}, r *MetaReply) error { r.Meta = s.meta; return nil }
func (s *bitsSinan) predict(_ *serveScratch, a *PredictArgs, r *PredictReply) error {
	s.got = PredictArgs{RH: slices.Clone(a.RH), LH: slices.Clone(a.LH), RC: slices.Clone(a.RC), Batch: a.Batch, DeadlineMS: a.DeadlineMS}
	*r = s.reply
	return nil
}

// requireRawBitsOnTheWire pins that floats cross the wire as their bits, in
// both directions: the values an arithmetic or textual encoding would
// disturb — −0, a subnormal, ±Inf, a NaN carrying a payload, a signalling
// NaN — arrive at the server's handler and back at the client's caller with
// every bit in place, in a query that mk builds.
func requireRawBitsOnTheWire(t *testing.T, mk func(nn.Dims, int) nn.SharedInputs) {
	t.Helper()
	special := []float64{
		math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.MaxFloat64,
		math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN with a payload
		math.Float64frombits(0xfff0_0000_0000_0001), // negative signalling NaN
	}
	fill := func(dst []float64, shift int) {
		for i := range dst {
			dst[i] = special[(i+shift)%len(special)]
		}
	}
	d := nn.Dims{N: 4, T: 3, F: 6, M: 5}
	const batch = 3
	fake := &bitsSinan{meta: core.ModelMeta{D: d, QoSMS: 200}}
	fake.reply = PredictReply{Lat: make([]float64, batch*d.M), M: d.M, PViol: make([]float64, batch)}
	fill(fake.reply.Lat, 1)
	fill(fake.reply.PViol, 2)
	addr, stop := serveRaw(t, fake)
	defer stop()
	c, err := dialWith(addr, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	in := mk(d, batch)
	fill(in.RH.Data, 3)
	fill(in.LH.Data, 4)
	fill(in.RC.Data, 5)
	lat, pv, err := c.PredictShared(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	// The round trip is over, so the handler's writes happened before this.
	requireSameBits(t, "server's RH", fake.got.RH, in.RH.Data)
	requireSameBits(t, "server's LH", fake.got.LH, in.LH.Data)
	requireSameBits(t, "server's RC", fake.got.RC, in.RC.Data)
	if fake.got.Batch != batch || fake.got.DeadlineMS != 2000 {
		t.Fatalf("server saw batch %d, deadline %v ms; want %d, 2000", fake.got.Batch, fake.got.DeadlineMS, batch)
	}
	requireSameBits(t, "client's Lat", lat.Data, fake.reply.Lat)
	requireSameBits(t, "client's PViol", pv, fake.reply.PViol)
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

// Swaps racing a storm of in-process Predicts, at W = B and W = 1: no
// prediction may fail and every swap installs the next version. Run under -race
// this is the service's half of the "zero predictor unavailability"
// guarantee.
func TestLifecycleMutationsRacePredict(t *testing.T) {
	live, other := tinyHybrid(t), tinyHybrid(t)
	svc := NewServiceWith(live, ServiceOptions{MaxConcurrent: -1})
	in, sh := mkBatch(live.D, 2), mkShared(live.D, 2)
	full := &PredictArgs{RH: in.RH.Data, LH: in.LH.Data, RC: in.RC.Data, Batch: 2}
	shared := &PredictArgs{RH: sh.RH.Data, LH: sh.LH.Data, RC: sh.RC.Data, Batch: 2}

	const predictors, swaps = 4, 40
	var wg sync.WaitGroup
	errs := make(chan error, predictors)
	for p := 0; p < predictors; p++ {
		args := full
		if p%2 == 1 {
			args = shared
		}
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
	for i := 0; i < swaps; i++ {
		if i%2 == 0 {
			svc.Swap(other)
		} else {
			svc.Swap(live)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("predict racing swaps: %v", err)
	}
	if v := svc.live.Version(); v != 1+swaps {
		t.Fatalf("version %d after %d swaps, want %d", v, swaps, 1+swaps)
	}
	if v := svc.Metrics().Gauge("server.lifecycle.version").Value(); v != 1+swaps {
		t.Fatalf("server.lifecycle.version = %v, want %d", v, 1+swaps)
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

// Concurrent Predict calls through the shared service — one immutable model
// behind the atomic pointer — must all produce the serial answer. Under -race
// this doubles as the service's thread-safety proof.
func TestServiceConcurrentPredict(t *testing.T) {
	const workers = 8
	m := tinyHybrid(t)
	// Size the gate to the test's own concurrency: this test proves the
	// model's thread safety, not admission control (which would shed under 8
	// callers on a small GOMAXPROCS).
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
