package predsvc

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/core"
	"sinan/internal/metrics"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/wire"
)

// quickOpts keeps retry/backoff machinery out of the way for tests that
// exercise something else.
func quickOpts() clientOptions {
	return clientOptions{
		DialTimeout:      2 * time.Second,
		CallTimeout:      2 * time.Second,
		MaxRetries:       0, // no retries
		Backoff:          wire.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		BreakerThreshold: 1000,
		BreakerCooldown:  time.Hour,
	}
}

// The client must survive its service restarting mid-run: calls fail (no
// panic) while the server is down and succeed again — over a fresh
// connection — once it is back on the same address.
func TestClientRecoversAcrossServerRestart(t *testing.T) {
	m := tinyHybrid(t)
	srv, _, err := ListenAndServe("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()

	c, err := dialWith(addr, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	in := mkBatch(m.D, 3)
	if _, _, err := c.PredictShared(nil, in); err != nil {
		t.Fatalf("healthy predict failed: %v", err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.PredictShared(nil, in); err == nil {
		t.Fatal("predict against a closed server should error")
	}

	// Restart on the same address (SO_REUSEADDR makes the rebind race-free
	// on loopback) and verify the client finds its way back.
	srv2, _, err := ListenAndServe(addr, m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	var lastErr error
	recovered := false
	for i := 0; i < 10; i++ {
		if _, _, lastErr = c.PredictShared(nil, in); lastErr == nil {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("client never recovered after restart: %v", lastErr)
	}
	st := c.Stats()
	if st.Redials < 2 {
		t.Fatalf("expected at least 2 redials (dial + recovery), got %+v", st)
	}
	if st.Errors == 0 {
		t.Fatalf("expected recorded errors during the outage, got %+v", st)
	}
}

// Breaker lifecycle on a deterministic fake clock: consecutive failures
// open it, calls then fail fast without touching the network, the cooldown
// admits a half-open probe, and a probe success closes it again.
func TestBreakerOpenHalfOpenClosed(t *testing.T) {
	m := tinyHybrid(t)
	srv, _, err := ListenAndServe("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	srv.Close() // down for the first act

	opts := defaultClientOptions
	opts.DialTimeout = 500 * time.Millisecond
	opts.CallTimeout = 500 * time.Millisecond
	opts.MaxRetries = 0
	opts.BreakerThreshold = 3
	opts.BreakerCooldown = 30 * time.Second
	c := newClient(addr, opts)
	c.meta = m.Meta() // never dialed: what Dial would have fetched
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }
	c.sleep = func(time.Duration) {}
	defer c.Close()

	in := mkBatch(m.D, 2)
	for i := 0; i < 3; i++ {
		if _, _, err := c.PredictShared(nil, in); err == nil {
			t.Fatalf("call %d against dead server should fail", i)
		}
	}
	if st := c.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("breaker should have opened once after 3 failures: %+v", st)
	}

	// Open: fail fast, no network activity.
	_, _, err = c.PredictShared(nil, in)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("open breaker should return ErrUnavailable, got %v", err)
	}
	if st := c.Stats(); st.FastFails != 1 {
		t.Fatalf("expected 1 fast-fail: %+v", st)
	}

	// Half-open probe that fails re-opens immediately (server still down).
	clock = clock.Add(31 * time.Second)
	if _, _, err := c.PredictShared(nil, in); errors.Is(err, ErrUnavailable) || err == nil {
		t.Fatalf("half-open probe should hit the network and fail, got %v", err)
	}
	if st := c.Stats(); st.BreakerOpens != 2 {
		t.Fatalf("failed probe should re-open the breaker: %+v", st)
	}

	// Server returns; next cooldown's probe succeeds and closes the breaker.
	srv2, _, err := ListenAndServe(addr, m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	clock = clock.Add(31 * time.Second)
	if _, _, err := c.PredictShared(nil, in); err != nil {
		t.Fatalf("half-open probe against live server failed: %v", err)
	}
	if c.state != breakerClosed {
		t.Fatalf("successful probe should close the breaker, state=%d", c.state)
	}
	if _, _, err := c.PredictShared(nil, in); err != nil {
		t.Fatalf("closed breaker should pass calls: %v", err)
	}
}

// Dial must not hang on a listener that accepts but never answers: the
// initial metadata fetch carries a deadline.
func TestDialDeadlineOnSilentServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, say nothing
		}
	}()

	opts := quickOpts()
	opts.DialTimeout = 200 * time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, err := dialWith(l.Addr().String(), opts)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("dial against a silent server should fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dial hung on a silent server")
	}
}

// Swap racing in-flight Predicts through real connections: under -race
// this is the end-to-end thread-safety proof for the model pointer and the
// connections' serving scratch.
func TestSwapRacesInflightPredicts(t *testing.T) {
	m1 := tinyHybrid(t)
	srv, svc, err := ListenAndServe("127.0.0.1:0", m1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m2 := tinyHybrid(t)
	m2.Pu = 0.77

	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	swapperDone := make(chan struct{})
	go func() {
		defer close(swapperDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				svc.Swap(m2)
			} else {
				svc.Swap(m1)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dialWith(srv.Addr().String(), quickOpts())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			in := mkBatch(m1.D, 3)
			for i := 0; i < 25; i++ {
				if _, _, err := c.PredictShared(nil, in); err != nil {
					t.Errorf("predict during swap storm: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-swapperDone
}

// Graceful shutdown drains in-flight RPCs: a slow call issued before Close
// completes successfully, and Close returns only after it has.
func TestServerCloseDrainsInflight(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	slow := &slowSvc{entered: make(chan struct{}), release: make(chan struct{})}
	srv := serve(l, slow, nil)

	conn, err := net.DialTimeout("tcp", srv.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	callDone := make(chan error, 1)
	go func() {
		callDone <- roundTrip(&wire.Conn{Conn: conn}, methodPredict, &PredictArgs{Batch: 1}, &PredictReply{}, 5*time.Second)
	}()
	<-slow.entered // the request has reached the handler

	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()
	waitUntil(t, "Close to stop the listener and the read sides", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.closed
	})
	select {
	case <-closeDone:
		t.Fatal("Close returned before the in-flight RPC drained")
	case <-time.After(50 * time.Millisecond):
	}
	close(slow.release)
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the in-flight RPC drained")
	}
	select {
	case err := <-callDone:
		if err != nil {
			t.Fatalf("in-flight RPC should complete across graceful shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight RPC never completed")
	}

	// And the listener really is closed.
	if _, err := dialWith(srv.Addr().String(), quickOpts()); err == nil {
		t.Fatal("dial after Close should fail")
	}
}

// slowSvc holds a predict from the moment it signals entered until release
// is closed.
type slowSvc struct {
	unknownSinan
	entered, release chan struct{}
}

func (s *slowSvc) predict(*serveScratch, *PredictArgs, *PredictReply) error {
	s.entered <- struct{}{}
	<-s.release
	return nil
}

// A degraded-capable scheduler stays a Policy even when driven by the
// remote client — compile-time wiring check for the fallback path.
var _ core.Predictor = (*Client)(nil)

// metaOnlySinan answers Meta and nothing else: a peer that does not know
// the predict method.
type metaOnlySinan struct {
	unknownSinan
	meta core.ModelMeta
}

func (s metaOnlySinan) Meta(_ *struct{}, r *MetaReply) error { r.Meta = s.meta; return nil }

// There is no wire negotiation: a method the server does not know is an
// ordinary RPC failure. The client spends its configured attempts, returns
// a plain error — no panic, no hang — and the scheduler runs its degraded
// fallback on it like on any other predictor outage.
func TestUnknownMethodIsPlainErrorAndSchedulerDegrades(t *testing.T) {
	app := apps.NewHotelReservation()
	d := nn.Dims{N: len(app.Tiers), T: 3, F: 6, M: 5}
	addr, stop := serveRaw(t, metaOnlySinan{meta: core.ModelMeta{D: d, QoSMS: app.QoSMS, RMSEValid: 10, Pd: 0.25, Pu: 0.5}})
	defer stop()
	opts := quickOpts()
	opts.MaxRetries = 2
	c, err := dialWith(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, _, err := c.PredictShared(nil, mkShared(d, 2)); err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("PredictShared against a server without the method: %v, want a plain error after 3 attempts", err)
	}
	if st := c.Stats(); st.Errors != 1 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want 1 error after 2 retries", st)
	}
	// A method byte outside the protocol is answered the same way: an error
	// frame over a connection that stays in sync, not a hang-up.
	c.mu.Lock()
	err = c.callOnce(0x7f, noArgs{}, noArgs{}, time.Second)
	var remote remoteError
	if !errors.As(err, &remote) || !strings.Contains(err.Error(), "unknown method 127") || c.conn == nil {
		t.Errorf("unknown method byte: %v (connection kept: %v), want an error frame and the connection kept", err, c.conn != nil)
	}
	redials := c.redials.Value()
	if err := c.callOnce(methodMeta, noArgs{}, &MetaReply{}, time.Second); err != nil || c.redials.Value() != redials {
		t.Errorf("Meta after the unknown method byte: %v, redials %d → %d", err, redials, c.redials.Value())
	}
	c.mu.Unlock()

	requireSchedulerDegrades(t, app, c)
}

// requireSchedulerDegrades drives a scheduler on a client whose every model
// query fails, over a calm over-provisioned state a healthy model would
// reclaim from: it must degrade and never reclaim.
func requireSchedulerDegrades(t *testing.T, app *apps.App, c *Client) {
	t.Helper()
	s := core.NewScheduler(app, c, core.SchedulerOptions{})
	st := calmState(app)
	var dec runner.Decision
	for i := 0; i < c.Meta().D.T+2; i++ {
		dec = s.Decide(st)
	}
	if !dec.Degraded || s.PredictErrors() == 0 {
		t.Fatalf("scheduler did not degrade: %+v (predict errors %d)", dec, s.PredictErrors())
	}
	for i, v := range dec.Alloc {
		if v < st.Alloc[i] {
			t.Fatalf("degraded fallback reclaimed tier %d: %v → %v", i, st.Alloc[i], v)
		}
	}
}

// calmState is an over-provisioned interval far below QoS: 4 cores a tier,
// 30 % busy, p99 20 ms.
func calmState(app *apps.App) runner.State {
	n := len(app.Tiers)
	alloc := make([]float64, n)
	stats := make([]cluster.Stats, n)
	for i := range alloc {
		alloc[i] = 4
		stats[i] = cluster.Stats{CPUUsage: 1.2, CPULimit: 4, RSS: 100, Cache: 50}
	}
	var perc metrics.Percentiles
	for i := range perc.Values {
		perc.Values[i] = 20
	}
	perc.Count = 100
	return runner.State{Stats: stats, Perc: perc, Alloc: alloc, RPS: 100, QoSMS: app.QoSMS}
}

// replySinan answers Meta honestly and every predict with whatever reply the
// test has stored, whatever was asked.
type replySinan struct {
	unknownSinan
	meta  core.ModelMeta
	reply atomic.Pointer[PredictReply]
}

func (s *replySinan) Meta(_ *struct{}, r *MetaReply) error { r.Meta = s.meta; return nil }
func (s *replySinan) predict(_ *serveScratch, _ *PredictArgs, r *PredictReply) error {
	*r = *s.reply.Load()
	return nil
}

// A reply whose shape does not answer the query is a predictor failure, not
// a panic in tensor.FromSlice or an index out of range in the scheduler: the
// call errors, counts, feeds the breaker and costs the peer the connection.
func TestClientRejectsMisshapenReply(t *testing.T) {
	app := apps.NewHotelReservation()
	d := nn.Dims{N: len(app.Tiers), T: 3, F: 6, M: 5}
	fake := &replySinan{meta: core.ModelMeta{D: d, QoSMS: app.QoSMS, RMSEValid: 10, Pd: 0.25, Pu: 0.5}}
	fake.reply.Store(&PredictReply{})
	addr, stop := serveRaw(t, fake)
	defer stop()
	opts := quickOpts()
	opts.BreakerThreshold = 4
	c, err := dialWith(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const batch = 6
	cases := []struct {
		name  string
		reply PredictReply
	}{
		{"short Lat", PredictReply{Lat: make([]float64, 3), M: d.M, PViol: make([]float64, batch)}},
		{"long PViol", PredictReply{Lat: make([]float64, batch*d.M), M: d.M, PViol: make([]float64, batch+1)}},
		{"M = 1", PredictReply{Lat: make([]float64, batch), M: 1, PViol: make([]float64, batch)}},
		{"empty", PredictReply{}},
	}
	for i, tc := range cases {
		fake.reply.Store(&tc.reply)
		var err error
		if i%2 == 0 {
			_, _, err = c.PredictShared(nil, mkShared(d, batch))
		} else {
			_, _, err = c.PredictShared(nil, mkBatch(d, batch))
		}
		if err == nil || !strings.Contains(err.Error(), "does not answer") {
			t.Fatalf("%s: err = %v, want a shape error", tc.name, err)
		}
		// Errors count, and every call had to dial afresh: the connection
		// that carried a misshapen reply was dropped.
		if st := c.Stats(); st.Errors != i+1 || st.Redials != i+1 {
			t.Fatalf("%s: stats = %+v, want %d errors over %d connections", tc.name, st, i+1, i+1)
		}
	}
	if st := c.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("stats = %+v: four misshapen replies must open a breaker of threshold 4", st)
	}

	// A reply of the right shape passes on the same server.
	c2, err := dialWith(addr, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	fake.reply.Store(&PredictReply{Lat: make([]float64, batch*d.M), M: d.M, PViol: make([]float64, batch)})
	lat, pv, err := c2.PredictShared(nil, mkShared(d, batch))
	if err != nil || lat.Shape[0] != batch || lat.Shape[1] != d.M || len(pv) != batch {
		t.Fatalf("well-shaped reply: %v", err)
	}

	// The scheduler's batch is not 6, so that same reply is misshapen to it.
	requireSchedulerDegrades(t, app, c2)
}

// dropListener hands out connections that, while armed, read one request and
// hang up instead of answering it: the service's host resets a connection in
// the middle of a call.
type dropListener struct {
	net.Listener
	armed atomic.Bool
}

func (l *dropListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &dropConn{Conn: conn, l: l}, nil
}

type dropConn struct {
	net.Conn
	l *dropListener
}

func (c *dropConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.l.armed.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return n, err
}

// One dropped connection costs a retry and a redial, not the call: the
// query is answered, and a scheduler over the client decides the interval
// on the model instead of its degraded fallback.
func TestClientRetriesDroppedConnection(t *testing.T) {
	app := apps.NewHotelReservation()
	d := nn.Dims{N: len(app.Tiers), T: 3, F: 6, M: 5}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dl := &dropListener{Listener: l}
	srv, _ := Serve(dl, NewServiceWith(hybridOf(t, d), ServiceOptions{}))
	defer srv.Close()
	opts := quickOpts()
	opts.MaxRetries = 2
	c, err := dialWith(l.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dl.armed.Store(true)
	if _, _, err := c.PredictShared(nil, mkShared(d, 3)); err != nil {
		t.Fatalf("predict over a dropped connection: %v, want it answered on the retry", err)
	}
	if st := c.Stats(); st.Errors != 0 || st.Retries != 1 || st.Redials != 2 {
		t.Fatalf("stats = %+v, want no error, 1 retry, 2 redials (dial + recovery)", st)
	}

	s := core.NewScheduler(app, c, core.SchedulerOptions{})
	st := calmState(app)
	for i := 0; i < d.T-1; i++ {
		s.Decide(st) // bootstrap: the history window fills, no query
	}
	dl.armed.Store(true)
	if dec := s.Decide(st); dec.Degraded || s.PredictErrors() != 0 {
		t.Fatalf("scheduler degraded on one dropped connection: %+v (predict errors %d)", dec, s.PredictErrors())
	}
	if st := c.Stats(); st.Retries != 2 || st.Redials != 3 {
		t.Fatalf("stats = %+v, want the scheduler's query retried once more", st)
	}
}
