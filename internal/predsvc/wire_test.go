package predsvc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"sinan/internal/core"
	"sinan/internal/lifecycle"
	"sinan/internal/nn"
	"sinan/internal/wire"
)

// TestRoundTripAllocs guards that a warmed PredictShared at Social Network
// size (172 candidates × 28 tiers, 5 681 floats up and 1 032 down) over
// loopback TCP allocates nothing, client and server together (AllocsPerRun
// counts the whole process). It read 54 under net/rpc + gob and 17 on the
// frame protocol before every per-call object found an owner: the server
// views the arguments through the headers of its connection's scratch (four
// tensor.FromSlice at 2 each before), the gate hands out a release func
// bound once, the client keeps its request and reply, and the reply decodes
// into the caller's PredictContext — the ownership core.Predictor states —
// so the answer's slices are reused with the context.
func TestRoundTripAllocs(t *testing.T) {
	call := warmRoundTrip(t)
	if got := testing.AllocsPerRun(200, call); got > 0 {
		t.Fatalf("a warmed PredictShared round trip costs %.1f allocations, want 0", got)
	} else {
		t.Logf("%.2f allocations per round trip", got)
	}
}

// TestRoundTripAllocsAcrossGC: a collection between calls frees nothing the
// round trip needs. The serving scratch belongs to the connection, not to a
// pool that a collection empties (at ~120 objects per call), so a warmed call
// allocates nothing with two runtime.GC between calls. Each call is counted
// alone, with the collections outside its window; the runtime's own
// background work (a new M, the unique package's post-collection sweep) can
// still land an object in a window now and then, so up to 2 of the 20
// windows may count one.
func TestRoundTripAllocsAcrossGC(t *testing.T) {
	call := warmRoundTrip(t)
	var m0, m1 runtime.MemStats
	counts := make([]uint64, 0, 20)
	allocating := 0
	for i := 0; i < 20; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		call()
		runtime.ReadMemStats(&m1)
		n := m1.Mallocs - m0.Mallocs
		counts = append(counts, n)
		if n > 0 {
			allocating++
		}
	}
	if allocating > 2 {
		t.Fatalf("%d of 20 warmed round trips after forced collections allocated (objects per call %v), want ≤ 2", allocating, counts)
	}
}

// warmRoundTrip serves an untrained Social Network-sized model on loopback,
// dials it, and returns a PredictShared round trip that has run once: the
// connection's buffers, the server's scratch and the caller's context are
// warm.
func warmRoundTrip(t *testing.T) func() {
	m := hybridOf(t, nn.Dims{N: 28, T: 5, F: 6, M: 5})
	srv, _, err := ListenAndServe("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := dialWith(srv.Addr().String(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	in := mkShared(m.D, 172)
	ctx := core.NewPredictContext()
	call := func() {
		if _, _, err := c.PredictShared(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	call()
	return call
}

// The request kinds that were retired; a server answers them as unknown
// methods. Kind 1 carried a predict query with one history window per
// candidate, which kind 2 now takes as W = B; 4–6 were Stats, UpdateModel
// and Rollback.
const retiredPredictPerRow byte = 1

const (
	retiredStats byte = 4 + iota
	retiredUpdateModel
	retiredRollback
)

// The fixed part of each body in bytes: a predict request's u32 Batch · f64
// DeadlineMS and a reply's u32 M, each followed by its float runs, and
// Meta's whole reply.
const argsFixed, replyFixed, metaLen = 12, 4, 48

// frame builds one frame by hand.
func frame(kind byte, body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	return append(append(b, kind), body...)
}

// wireSeeds returns, for a message whose frame is whole, the frame itself
// and the ways a decoder must survive seeing it broken: cut at every header
// boundary (the body's fixed part is bodyHeader bytes), announcing 4 GiB,
// and — for the raw float bodies, whose counts start at countsAt — with
// counts that disagree with the payload and counts whose byte total
// overflows 32 bits.
func wireSeeds(whole []byte, bodyHeader, countsAt int) [][]byte {
	seeds := [][]byte{whole}
	for _, cut := range []int{0, 2, 4, wire.Header, wire.Header + bodyHeader/2, wire.Header + bodyHeader, len(whole) - 3} {
		if cut >= 0 && cut < len(whole) {
			seeds = append(seeds, whole[:cut])
		}
	}
	huge := bytes.Clone(whole)
	binary.LittleEndian.PutUint32(huge, 0xFFFFFFFF)
	seeds = append(seeds, huge)
	if countsAt > 0 {
		off := wire.Header + countsAt
		disagree := bytes.Clone(whole)
		binary.LittleEndian.PutUint32(disagree[off:], binary.LittleEndian.Uint32(disagree[off:])+1)
		overflow := bytes.Clone(whole)
		binary.LittleEndian.PutUint32(overflow[off:], 0x20000000) // × 8 bytes = 2³²
		binary.LittleEndian.PutUint32(overflow[off+4:], 0x20000000)
		seeds = append(seeds, disagree, overflow)
	}
	return seeds
}

// readConn is the reading half of a connection over bytes in memory.
type readConn struct {
	net.Conn
	r io.Reader
}

func (c readConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// The frame reader and the raw decoders, seed by seed: a frame that is cut
// short, announces more than the cap, or carries counts that do not account
// for exactly the bytes present is an error — found before anything is
// sliced or sized by those counts — and the whole frame decodes.
func TestBrokenFramesAreErrors(t *testing.T) {
	args := &PredictArgs{RH: []float64{1, 2, 3}, LH: []float64{4}, RC: []float64{5, 6}, Batch: 2, DeadlineMS: 7}
	reply := &PredictReply{Lat: []float64{1, 2, 3, 4}, M: 2, PViol: []float64{5, 6}}
	meta := &MetaReply{Meta: core.ModelMeta{D: nn.Dims{N: 28, T: 5, F: 6, M: 5}, QoSMS: 500, RMSEValid: 21.5, Pd: 0.25, Pu: math.Inf(1)}}
	for _, tc := range []struct {
		seeds [][]byte
		got   body
		want  any
	}{
		{wireSeeds(frame(methodPredict, args.appendTo(nil)), argsFixed+12, argsFixed), new(PredictArgs), args},
		{wireSeeds(frame(statusOK, reply.appendTo(nil)), replyFixed+8, replyFixed), new(PredictReply), reply},
		{wireSeeds(frame(statusOK, meta.appendTo(nil)), metaLen, 0), new(MetaReply), meta},
	} {
		for i, seed := range tc.seeds {
			w := &wire.Conn{Conn: readConn{r: bytes.NewReader(seed)}}
			_, b, err := w.Recv()
			if err == nil {
				err = tc.got.decode(b)
			}
			if whole := i == 0; whole != (err == nil) {
				t.Errorf("%T seed %d (%d bytes): err = %v", tc.want, i, len(seed), err)
			} else if whole && !reflect.DeepEqual(tc.got, tc.want) {
				t.Errorf("whole frame decoded as %+v, want %+v", tc.got, tc.want)
			}
		}
	}
}

// requireReencodes is the codec oracle over every whole frame in data: a
// body any of the four decoders accepts re-encodes to the same bytes.
func requireReencodes(t *testing.T, data []byte) {
	w := &wire.Conn{Conn: readConn{r: bytes.NewReader(data)}}
	for {
		_, b, err := w.Recv()
		if err != nil {
			return
		}
		for _, v := range []body{new(PredictArgs), new(PredictReply), new(MetaReply), noArgs{}} {
			if v.decode(b) == nil && !bytes.Equal(v.appendTo(nil), b) {
				t.Fatalf("%T accepted the body %x and re-encodes it as %x", v, b, v.appendTo(nil))
			}
		}
	}
}

// A Meta reply's dims size the scheduler's history rings, so Dial refuses
// dims that nn.Dims.Check refuses instead of handing them on.
func TestDialRefusesMetaDimsOutOfRange(t *testing.T) {
	for _, T := range []int{0, nn.MaxDim + 1} {
		addr, stop := serveRaw(t, metaOnlySinan{meta: core.ModelMeta{D: nn.Dims{N: 4, T: T, F: 6, M: 5}, QoSMS: 200}})
		c, err := Dial(addr)
		if err == nil {
			c.Close()
			t.Errorf("Dial accepted a Meta reply with T = %d", T)
		} else if !strings.Contains(err.Error(), "out of range") {
			t.Errorf("Dial with T = %d: %v, want the dims refused", T, err)
		}
		stop()
	}
}

// rawBody is a body of arbitrary bytes, sent as they are; decoding one
// accepts anything.
type rawBody []byte

func (r rawBody) appendTo(b []byte) []byte { return append(b, r...) }
func (rawBody) decode([]byte) error        { return nil }

// gobBody is what a client of the retired gob methods sent.
func gobBody(t testing.TB, v any) rawBody {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzServeConn throws arbitrary bytes at the server's connection loop — the
// frame reader, the raw Predict decoder, Meta's empty body and the retired
// kinds' — in front of a real Service. The loop must hang up or keep answering
// without panicking and return once the peer is gone; afterwards the
// service still answers a valid query and nothing is left in flight. Every
// whole frame fed also goes through requireReencodes.
func FuzzServeConn(f *testing.F) {
	m := tinyHybrid(f)
	shared := mkShared(m.D, 3)
	sharedArgs := &PredictArgs{RH: shared.RH.Data, LH: shared.LH.Data, RC: shared.RC.Data, Batch: 3, DeadlineMS: 1000}
	full := mkBatch(m.D, 2)
	fullArgs := &PredictArgs{RH: full.RH.Data, LH: full.LH.Data, RC: full.RC.Data, Batch: 2}
	fullBody := fullArgs.appendTo(nil)
	artifact, _, err := lifecycle.Encode(m, lifecycle.Manifest{Note: "fuzz"})
	if err != nil {
		f.Fatal(err)
	}
	predictShared := frame(methodPredict, sharedArgs.appendTo(nil))
	update := frame(retiredUpdateModel, gobBody(f, &struct{ Artifact []byte }{artifact}))
	for _, seed := range wireSeeds(predictShared, argsFixed+12, argsFixed) {
		f.Add(seed)
	}
	for _, seed := range wireSeeds(frame(methodPredict, fullBody), argsFixed+12, argsFixed) {
		f.Add(seed)
	}
	f.Add(frame(retiredPredictPerRow, fullBody))
	for _, seed := range wireSeeds(update, 0, 0) {
		f.Add(seed)
	}
	corrupt := bytes.Clone(update)
	for i := wire.Header; i < len(corrupt); i += 7 {
		corrupt[i] ^= 0x55
	}
	f.Add(corrupt) // a gob frame with a corrupt body
	f.Add(frame(methodMeta, gobBody(f, &struct{}{})))
	f.Add(frame(retiredStats, gobBody(f, &struct{}{})))
	f.Add(frame(retiredRollback, gobBody(f, &struct{}{})))
	f.Add(frame(0x7f, []byte("no such method")))
	f.Add(frame(methodMeta, nil))
	f.Add(append(bytes.Clone(predictShared), update...)) // two requests back to back

	f.Fuzz(func(t *testing.T, data []byte) {
		requireReencodes(t, data)
		svc := NewServiceWith(m, ServiceOptions{})
		client, server := net.Pipe()
		returned := make(chan struct{})
		go func() {
			serveConn(server, svc)
			server.Close() // what Server.untrack does; unblocks a Write still pending below
			close(returned)
		}()
		go io.Copy(io.Discard, client) // the replies
		client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		client.Write(data) // an error means the server hung up first, which it may
		client.Close()
		select {
		case <-returned:
		case <-time.After(4 * time.Second):
			t.Fatalf("serveConn still running 4s after the connection closed (%d bytes fed)", len(data))
		}

		var reply PredictReply
		if err := svc.predict(newServeScratch(), sharedArgs, &reply); err != nil {
			t.Fatalf("valid predict after the fuzzed connection: %v", err)
		}
		if reply.M != m.D.M || len(reply.Lat) != 3*m.D.M || len(reply.PViol) != 3 {
			t.Fatalf("reply of %d latencies (M = %d), %d violation probabilities to 3 candidates", len(reply.Lat), reply.M, len(reply.PViol))
		}
		if v := svc.Metrics().Gauge("server.rpc.predict.inflight").Value(); v != 0 {
			t.Fatalf("server.rpc.predict.inflight = %v after the connection drained", v)
		}
	})
}

// FuzzClientReply answers one PredictShared with arbitrary bytes. The client
// must return an error or a result of the shape it asked for — never panic,
// never size anything by an unchecked count — and must not wait past its
// call deadline for bytes that never come. The bytes also go through
// requireReencodes.
func FuzzClientReply(f *testing.F) {
	d := nn.Dims{N: 4, T: 3, F: 6, M: 5}
	const batch = 2
	good := &PredictReply{Lat: make([]float64, batch*d.M), M: d.M, PViol: make([]float64, batch)}
	for i := range good.Lat {
		good.Lat[i] = float64(i) + 0.5
	}
	good.PViol[1] = math.NaN()
	for _, seed := range wireSeeds(frame(statusOK, good.appendTo(nil)), replyFixed+8, replyFixed) {
		f.Add(seed)
	}
	wrongShape := *good
	wrongShape.Lat = wrongShape.Lat[:3]
	f.Add(frame(statusOK, wrongShape.appendTo(nil)))
	for _, seed := range wireSeeds(frame(statusErr, []byte(ErrOverloaded.Error())), 0, 0) {
		f.Add(seed)
	}
	f.Add(frame(statusErr, []byte(ErrExpired.Error())))
	f.Add(frame(0x7f, []byte("no such status")))
	f.Add(frame(statusOK, gobBody(f, &MetaReply{}))) // a gob body where floats belong

	in := mkShared(d, batch)
	f.Fuzz(func(t *testing.T, data []byte) {
		requireReencodes(t, data)
		opts := quickOpts()
		opts.CallTimeout = 30 * time.Millisecond
		c := newClient("", opts)
		c.meta = core.ModelMeta{D: d}
		client, server := net.Pipe()
		c.conn = &wire.Conn{Conn: client}
		defer c.Close()
		done := make(chan struct{})
		go func() {
			// Take the request, answer with the fuzz input and say no more:
			// the connection stays open until the client has returned.
			w := &wire.Conn{Conn: server}
			if _, _, err := w.Recv(); err == nil {
				server.Write(data)
			}
			<-done
			server.Close()
		}()
		start := time.Now()
		lat, pv, err := c.PredictShared(nil, in)
		close(done)
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("call returned after %v with a %v call deadline", took, opts.CallTimeout)
		}
		if err != nil {
			return
		}
		if len(lat.Shape) != 2 || lat.Shape[0] != batch || lat.Shape[1] != d.M || len(lat.Data) != batch*d.M || len(pv) != batch {
			t.Fatalf("accepted a reply of shape %v with %d latencies and %d violation probabilities", lat.Shape, len(lat.Data), len(pv))
		}
	})
}
