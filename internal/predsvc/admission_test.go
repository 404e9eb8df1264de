package predsvc

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sinan/internal/core"
	"sinan/internal/lifecycle"
	"sinan/internal/nn"
	"sinan/internal/telemetry"
)

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A no-queue gate sheds anything beyond the concurrency limit on arrival.
func TestGateNoQueueSheds(t *testing.T) {
	g := newGate(ServiceOptions{MaxConcurrent: 1, MaxQueue: -1}, telemetry.NewRegistry())
	release, err := g.acquire(time.Time{})
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if _, err := g.acquire(time.Time{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated no-queue gate returned %v, want ErrOverloaded", err)
	}
	release()
	if _, err := g.acquire(time.Time{}); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	st := g.stats()
	if st.Accepted != 2 || st.Shed != 1 || st.Expired != 0 {
		t.Fatalf("stats = %+v, want accepted 2, shed 1", st)
	}
}

// The wait stack drains LIFO: under overload the newest request has the most
// deadline budget left, so it goes first.
func TestGateLIFOGrantOrder(t *testing.T) {
	g := newGate(ServiceOptions{MaxConcurrent: 1, MaxQueue: 4}, telemetry.NewRegistry())
	hold, err := g.acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	var wg sync.WaitGroup
	enqueue := func(name string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := g.acquire(time.Time{})
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			order <- name
			release()
		}()
	}
	enqueue("old")
	waitUntil(t, "old queued", func() bool { return g.stats().Queued == 1 })
	enqueue("new")
	waitUntil(t, "new queued", func() bool { return g.stats().Queued == 2 })

	hold()
	wg.Wait()
	if first, second := <-order, <-order; first != "new" || second != "old" {
		t.Fatalf("grant order = %s, %s; want newest first", first, second)
	}
}

// Overflow evicts the oldest queued entry with a typed shed; the newcomer
// takes its place and is eventually served.
func TestGateEvictsOldestOnOverflow(t *testing.T) {
	g := newGate(ServiceOptions{MaxConcurrent: 1, MaxQueue: 1}, telemetry.NewRegistry())
	hold, err := g.acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	oldErr := make(chan error, 1)
	go func() {
		_, err := g.acquire(time.Time{})
		oldErr <- err
	}()
	waitUntil(t, "old queued", func() bool { return g.stats().Queued == 1 })

	newErr := make(chan error, 1)
	go func() {
		release, err := g.acquire(time.Time{})
		if err == nil {
			release()
		}
		newErr <- err
	}()
	// The newcomer's arrival sheds the older entry rather than itself.
	if err := <-oldErr; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("evicted waiter got %v, want ErrOverloaded", err)
	}
	waitUntil(t, "new queued", func() bool { return g.stats().Queued == 1 })
	hold()
	if err := <-newErr; err != nil {
		t.Fatalf("newcomer should be served after release: %v", err)
	}
	st := g.stats()
	if st.Shed != 1 || st.PeakQueue != 1 {
		t.Fatalf("stats = %+v, want shed 1, peak queue 1", st)
	}
}

// Deadline budgets are honoured server-side: an already-expired request is
// refused on arrival, and a queued request whose budget runs out while
// waiting is dropped at grant time instead of executing for nobody.
func TestGateDeadlineExpiry(t *testing.T) {
	g := newGate(ServiceOptions{MaxConcurrent: 1, MaxQueue: 4}, telemetry.NewRegistry())
	base := time.Unix(1000, 0)
	var offset atomic.Int64
	g.now = func() time.Time { return base.Add(time.Duration(offset.Load())) }

	if _, err := g.acquire(base.Add(-time.Millisecond)); !errors.Is(err, ErrExpired) {
		t.Fatalf("pre-expired acquire got %v, want ErrExpired", err)
	}

	hold, err := g.acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	expErr := make(chan error, 1)
	go func() {
		_, err := g.acquire(base.Add(50 * time.Millisecond))
		expErr <- err
	}()
	waitUntil(t, "waiter queued", func() bool { return g.stats().Queued == 1 })
	offset.Store(int64(100 * time.Millisecond))
	hold()
	if err := <-expErr; !errors.Is(err, ErrExpired) {
		t.Fatalf("stale waiter got %v, want ErrExpired at grant time", err)
	}
	st := g.stats()
	if st.Expired != 2 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want expired 2, shed 0", st)
	}
}

// The caller's deadline crosses the wire, so the server skips the work its
// caller has given up on: a request still queued when its budget runs out is
// answered "expired" and never reaches the model.
func TestServerSkipsWorkItsCallerAbandoned(t *testing.T) {
	m := tinyHybrid(t)
	svc := NewServiceWith(m, ServiceOptions{MaxConcurrent: 1, MaxQueue: 4})
	base := time.Unix(1000, 0)
	var offset atomic.Int64
	svc.gate.now = func() time.Time { return base.Add(time.Duration(offset.Load())) }
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := Serve(l, svc)
	defer srv.Close()
	hold, err := svc.gate.acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dialWith(l.Addr().String(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := c.PredictShared(nil, mkBatch(m.D, 2))
		done <- err
	}()
	waitUntil(t, "request queued", func() bool { return svc.StatsSnapshot().Queued == 1 })
	offset.Store(int64(time.Hour)) // long past the caller's CallTimeout
	hold()
	if err := <-done; !IsExpired(err) {
		t.Fatalf("abandoned request returned %v, want the server's expiry", err)
	}
	if rows := svc.Metrics().Counter("server.rpc.predict.rows").Value(); rows != 0 {
		t.Fatalf("the model answered %d rows nobody was waiting for", rows)
	}
}

// Service.Predict sheds when the gate is saturated — but malformed requests
// are refused before admission, so they never count as load shedding.
func TestServicePredictShedsWhenSaturated(t *testing.T) {
	m := tinyHybrid(t)
	svc := NewServiceWith(m, ServiceOptions{MaxConcurrent: 1, MaxQueue: -1})
	hold, err := svc.gate.acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer hold()

	in := mkBatch(m.D, 2)
	args := &PredictArgs{RH: in.RH.Data, LH: in.LH.Data, RC: in.RC.Data, Batch: 2}
	err = svc.Predict(args, &PredictReply{})
	if !errors.Is(err, ErrOverloaded) || !core.IsOverload(err) {
		t.Fatalf("saturated Predict returned %v, want typed overload", err)
	}
	if err := svc.Predict(&PredictArgs{Batch: 0}, &PredictReply{}); err == nil || IsOverloaded(err) {
		t.Fatalf("malformed request must be refused, not shed: %v", err)
	}
	st := svc.StatsSnapshot()
	if st.Shed != 1 {
		t.Fatalf("stats = %+v, want exactly 1 shed", st)
	}
}

// A shed crossing the wire is recognised by the client: counted as a shed
// (not a transport error), never retried (retrying is exactly the load the
// server is shedding), and the healthy connection is kept.
func TestClientCountsShedsWithoutRetrying(t *testing.T) {
	m := tinyHybrid(t)
	srv, svc, err := ListenAndServeWith("127.0.0.1:0", m, ServiceOptions{MaxConcurrent: 1, MaxQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hold, err := svc.gate.acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}

	opts := quickOpts()
	opts.MaxRetries = 2 // prove sheds short-circuit the retry loop
	c, err := dialWith(srv.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	in := mkBatch(m.D, 3)
	_, _, err = c.PredictShared(nil, in)
	if !IsOverloaded(err) || !core.IsOverload(err) {
		t.Fatalf("client error %v must classify as overload on both layers", err)
	}
	st := c.Stats()
	if st.Sheds != 1 || st.Retries != 0 || st.DeadlineExceeded != 0 {
		t.Fatalf("stats = %+v, want 1 shed, 0 retries", st)
	}

	// The slot frees up; the same connection serves the next call.
	hold()
	if _, _, err := c.PredictShared(nil, in); err != nil {
		t.Fatalf("predict after recovery: %v", err)
	}
	if st := c.Stats(); st.Redials != 1 {
		t.Fatalf("shed must not drop the connection: redials = %d, want 1", st.Redials)
	}
}

// unknownSinan is a handler that knows no method; the fakes embed it and
// override what they answer.
type unknownSinan struct{}

var errUnknownMethod = errors.New("predsvc: unknown method")

func (unknownSinan) predict(*serveScratch, *PredictArgs, *PredictReply) error {
	return errUnknownMethod
}
func (unknownSinan) Meta(*struct{}, *MetaReply) error { return errUnknownMethod }

// serveRaw serves an arbitrary handler on a loopback listener, for wire-form
// error tests. stop is Server.Close: it waits for the handler to return.
func serveRaw(t *testing.T, h handler) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(l, h, nil)
	return l.Addr().String(), func() { srv.Close() }
}

type expiringSinan struct{ metaOnlySinan }

func (expiringSinan) predict(*serveScratch, *PredictArgs, *PredictReply) error {
	return ErrExpired
}

// stallSinan holds every predict until release is closed.
type stallSinan struct {
	metaOnlySinan
	release chan struct{}
}

func (s stallSinan) predict(*serveScratch, *PredictArgs, *PredictReply) error {
	<-s.release
	return nil
}

// Deadline losses are counted apart from sheds and generic errors — both the
// server-side drop (which crosses the wire as its message) and the client's
// own call deadline.
func TestClientCountsDeadlineExceeded(t *testing.T) {
	d := nn.Dims{N: 4, T: 3, F: 6, M: 5}

	// Wire form: the server answers "expired" over a healthy connection.
	meta := metaOnlySinan{meta: core.ModelMeta{D: d}}
	addr, stop := serveRaw(t, expiringSinan{meta})
	defer stop()
	c, err := dialWith(addr, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.PredictShared(nil, mkBatch(d, 2))
	if err == nil || IsOverloaded(err) {
		t.Fatalf("expired predict returned %v", err)
	}
	st := c.Stats()
	if st.DeadlineExceeded != 1 || st.Sheds != 0 {
		t.Fatalf("stats = %+v, want 1 deadline loss, 0 sheds", st)
	}
	// The next call finds the connection the expiry arrived on.
	if _, _, err := c.PredictShared(nil, mkBatch(d, 2)); !IsExpired(err) {
		t.Fatalf("second expired predict returned %v", err)
	}
	if st := c.Stats(); st.Redials != 1 || st.DeadlineExceeded != 2 {
		t.Fatalf("server-side expiry must not drop the connection: stats = %+v, want 1 redial, 2 deadline losses", st)
	}

	// Local form: the client's own deadline fires first.
	stall := stallSinan{meta, make(chan struct{})}
	addr2, stop2 := serveRaw(t, stall)
	defer stop2()
	defer close(stall.release) // runs first, so stop2 has nothing left to wait for
	opts := quickOpts()
	opts.CallTimeout = 50 * time.Millisecond
	c2, err := dialWith(addr2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, _, err := c2.PredictShared(nil, mkBatch(d, 2)); err == nil {
		t.Fatal("predict against a stalled server should time out")
	}
	if st := c2.Stats(); st.DeadlineExceeded != 1 {
		t.Fatalf("stats = %+v, want 1 deadline loss from the local deadline", st)
	}
}

// Kind 1 once carried a predict query with one history window per
// candidate, and kinds 4–6 UpdateModel, Stats and Rollback. A Service now
// answers each with an unknown-method error frame — even a well-formed
// query or model artifact is not acted on — and the same connection then
// serves a Predict without a redial.
func TestRetiredMethodsAreUnknownAndKeepConnection(t *testing.T) {
	m := tinyHybrid(t)
	srv, svc, err := ListenAndServe("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := dialWith(srv.Addr().String(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	artifact, _, err := lifecycle.Encode(m, lifecycle.Manifest{Note: "retired"})
	if err != nil {
		t.Fatal(err)
	}
	full := mkBatch(m.D, 2)
	for kind, args := range map[byte]rawBody{
		retiredPredictPerRow: (&PredictArgs{RH: full.RH.Data, LH: full.LH.Data, RC: full.RC.Data, Batch: 2}).appendTo(nil),
		retiredUpdateModel:   gobBody(t, &struct{ Artifact []byte }{artifact}),
		retiredStats:         gobBody(t, &struct{}{}),
		retiredRollback:      gobBody(t, &struct{}{}),
	} {
		c.mu.Lock()
		err := c.callOnce(kind, args, rawBody(nil), time.Second)
		kept := c.conn != nil
		c.mu.Unlock()
		var remote remoteError
		if !errors.As(err, &remote) || !strings.Contains(err.Error(), fmt.Sprintf("unknown method %d", kind)) || !kept {
			t.Errorf("kind %d: %v (connection kept: %v), want an unknown-method error frame and the connection kept", kind, err, kept)
		}
	}
	if rows := svc.Metrics().Counter("server.rpc.predict.rows").Value(); rows != 0 {
		t.Errorf("%d rows predicted by the retired kinds, want 0", rows)
	}
	if _, _, err := c.PredictShared(nil, full); err != nil {
		t.Fatalf("predict after the retired kinds: %v", err)
	}
	if st := c.Stats(); st.Redials != 1 {
		t.Errorf("redials = %d, want 1: an unknown method keeps the connection", st.Redials)
	}
	if g := svc.live.Generation(); g != 1 {
		t.Errorf("model generation %d after the retired kinds, want 1", g)
	}
}

// TestServiceMetricsRegistry checks that the service's registry carries the
// RPC latency histogram, in-flight gauge, and admission outcome counters,
// and that ServerStats is consistent with the registry snapshot it views.
func TestServiceMetricsRegistry(t *testing.T) {
	m := tinyHybrid(t)
	svc := NewServiceWith(m, ServiceOptions{})
	const n = 5
	for i := 0; i < n; i++ {
		var reply PredictReply
		in := mkBatch(m.D, 2)
		args := &PredictArgs{RH: in.RH.Data, LH: in.LH.Data, RC: in.RC.Data, Batch: 2}
		if err := svc.Predict(args, &reply); err != nil {
			t.Fatal(err)
		}
	}
	snap := svc.Metrics().Snapshot()
	if got := snap.Counters["server.admission.outcome{result=accepted}"]; got != n {
		t.Errorf("accepted counter = %d; want %d", got, n)
	}
	h := snap.Histograms["server.rpc.predict.latency_ms"]
	if h == nil {
		t.Fatal("missing server.rpc.predict.latency_ms histogram")
	}
	if h.Count != n {
		t.Errorf("latency histogram count = %d; want %d", h.Count, n)
	}
	if h.P99 <= 0 {
		t.Errorf("latency histogram p99 = %v; want > 0", h.P99)
	}
	if _, ok := snap.Gauges["server.rpc.predict.inflight"]; !ok {
		t.Error("missing server.rpc.predict.inflight gauge")
	}
	st := svc.StatsSnapshot()
	if st.Accepted != n {
		t.Errorf("StatsSnapshot.Accepted = %d; want %d", st.Accepted, n)
	}
}

// Server.Close racing an overloaded queue: admitted work drains, queued work
// is rejected immediately (no goroutine parks forever on the gate), and the
// process returns to its baseline goroutine count.
func TestServerCloseRacesOverloadedQueue(t *testing.T) {
	before := runtime.NumGoroutine()

	m := tinyHybrid(t)
	srv, svc, err := ListenAndServeWith("127.0.0.1:0", m, ServiceOptions{MaxConcurrent: 1, MaxQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Pin the only execution slot so every RPC piles into the wait queue.
	hold, err := svc.gate.acquire(time.Time{})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	var wg sync.WaitGroup
	var succeeded atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dialWith(srv.Addr().String(), quickOpts())
			if err != nil {
				return // lost the race with Close before dialing; fine
			}
			defer c.Close()
			if _, _, err := c.PredictShared(nil, mkBatch(m.D, 2)); err == nil {
				succeeded.Add(1)
			}
		}()
	}

	waitUntil(t, "queue under pressure", func() bool {
		st := svc.StatsSnapshot()
		return st.Queued > 0 || st.Shed > 0
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	hold()
	wg.Wait()

	if succeeded.Load() != 0 {
		t.Fatalf("%d predicts succeeded with the only slot pinned", succeeded.Load())
	}
	st := svc.StatsSnapshot()
	if st.Shed == 0 {
		t.Fatalf("stats = %+v, want shed > 0 from overflow or drain", st)
	}
	if st.Queued != 0 {
		t.Fatalf("stats = %+v, want an empty queue after Close", st)
	}

	// Every connection handler, queued waiter, and client goroutine unwinds.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
