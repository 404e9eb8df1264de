package predsvc

import (
	"fmt"
	"sync"
	"testing"

	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// mkShared builds one decision interval's deduplicated query: a single
// history window and b allocation rows.
func mkShared(d nn.Dims, b int) nn.SharedInputs {
	in := nn.SharedInputs{
		RH: tensor.New(1, d.F, d.N, d.T),
		LH: tensor.New(1, d.T, d.M),
		RC: tensor.New(b, d.N),
	}
	for i := range in.RH.Data {
		in.RH.Data[i] = float64(i%13) * 0.1
	}
	for i := range in.LH.Data {
		in.LH.Data[i] = float64(i%7) * 5
	}
	for i := range in.RC.Data {
		in.RC.Data[i] = 1 + float64(i%4)*0.5
	}
	return in
}

// TestRemotePredictSharedMatchesLocal pins the shared wire path end to end:
// the deduplicated query must answer exactly like the local model's shared
// path (floats cross the wire as their bits, so equality is bitwise).
func TestRemotePredictSharedMatchesLocal(t *testing.T) {
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

	in := mkShared(m.D, 7)
	wantLat, wantPV, err := m.PredictShared(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	wantLat = wantLat.Clone()
	wantPV = append([]float64(nil), wantPV...)
	gotLat, gotPV, err := c.PredictShared(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "lat", gotLat.Data, wantLat.Data)
	requireSameBits(t, "pviol", gotPV, wantPV)
	requireRawBitsOnTheWire(t, true)
}

// TestPredictSharedValidatesLengths: PredictShared refuses payloads whose
// history arrives per candidate (the redundancy this wire form exists to
// eliminate) or whose RC rows disagree with the batch — and Predict on the
// same server still demands full-batch lengths.
func TestPredictSharedValidatesLengths(t *testing.T) {
	m := tinyHybrid(t)
	svc := NewServiceWith(m, ServiceOptions{})
	d := m.D
	b := 4
	in := mkShared(d, b)
	var full nn.Inputs
	in.Expand(&full)

	var reply PredictReply
	cases := []PredictArgs{
		{RH: full.RH.Data, LH: in.LH.Data, RC: in.RC.Data, Batch: b},     // per-candidate RH
		{RH: in.RH.Data, LH: full.LH.Data, RC: in.RC.Data, Batch: b},     // per-candidate LH
		{RH: in.RH.Data, LH: in.LH.Data, RC: in.RC.Data[:d.N], Batch: b}, // short RC
		{RH: in.RH.Data, LH: in.LH.Data, RC: in.RC.Data, Batch: 0},       // no batch
	}
	for i, args := range cases {
		if err := serveShared(svc, &args, &reply); err == nil {
			t.Fatalf("case %d: malformed shared args accepted", i)
		}
	}
	rejected := svc.Metrics().Counter("server.rpc.predict.rejected").Value()
	if rejected != int64(len(cases)) {
		t.Fatalf("rejected = %d, want %d", rejected, len(cases))
	}

	// Well-formed shared args pass; Predict still wants expanded lengths.
	good := PredictArgs{RH: in.RH.Data, LH: in.LH.Data, RC: in.RC.Data, Batch: b}
	if err := serveShared(svc, &good, &reply); err != nil {
		t.Fatal(err)
	}
	v1short := PredictArgs{RH: in.RH.Data, LH: in.LH.Data, RC: in.RC.Data, Batch: b}
	if err := svc.Predict(&v1short, &reply); err == nil {
		t.Fatal("Predict accepted shared-sized history")
	}
	v1 := PredictArgs{RH: full.RH.Data, LH: full.LH.Data, RC: full.RC.Data, Batch: b}
	if err := svc.Predict(&v1, &reply); err != nil {
		t.Fatal(err)
	}
}

// serveShared serves a shared request in process, as a connection would.
func serveShared(svc *Service, args *PredictArgs, reply *PredictReply) error {
	return svc.predict(newServeScratch(), args, reply, true)
}

// TestSwapDuringPredictShared hammers the shared path from several
// goroutines while the served model is hot-swapped underneath: every call
// must answer consistently from one model or the other (never a torn mix),
// with no errors. Run under -race this also proves the shared path shares
// no mutable state across requests.
func TestSwapDuringPredictShared(t *testing.T) {
	m1 := tinyHybrid(t)
	svc := NewServiceWith(m1, ServiceOptions{})
	m2 := tinyHybrid(t)
	d := m1.D
	in := mkShared(d, 6)

	want1, pv1, err := m1.PredictShared(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	want1 = want1.Clone()
	pv1 = append([]float64(nil), pv1...)
	want2, pv2, err := m2.PredictShared(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	want2 = want2.Clone()
	pv2 = append([]float64(nil), pv2...)

	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := PredictArgs{RH: in.RH.Data, LH: in.LH.Data, RC: in.RC.Data, Batch: in.Batch()}
			for r := 0; r < rounds; r++ {
				var reply PredictReply
				if err := serveShared(svc, &args, &reply); err != nil {
					errc <- err
					return
				}
				from1 := reply.Lat[0] == want1.Data[0]
				want, pv := want2, pv2
				if from1 {
					want, pv = want1, pv1
				}
				for i := range reply.Lat {
					if reply.Lat[i] != want.Data[i] {
						errc <- fmt.Errorf("torn latency row at index %d", i)
						return
					}
				}
				for i := range reply.PViol {
					if reply.PViol[i] != pv[i] {
						errc <- fmt.Errorf("torn pviol at index %d", i)
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			svc.Swap(m2)
			svc.Swap(m1)
		}
	}()
	wg.Wait()
	<-done
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
