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
)

// quickOpts keeps retry/backoff machinery out of the way for tests that
// exercise something else.
func quickOpts() ClientOptions {
	return ClientOptions{
		DialTimeout:      2 * time.Second,
		CallTimeout:      2 * time.Second,
		MaxRetries:       -1, // none
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
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

	c, err := DialWith(addr, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	in := mkBatch(m.D, 3)
	if _, _, err := c.PredictBatch(nil, in); err != nil {
		t.Fatalf("healthy predict failed: %v", err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.PredictBatch(nil, in); err == nil {
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
		if _, _, lastErr = c.PredictBatch(nil, in); lastErr == nil {
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

	c := newClient(addr, ClientOptions{
		DialTimeout:      500 * time.Millisecond,
		CallTimeout:      500 * time.Millisecond,
		MaxRetries:       -1,
		BreakerThreshold: 3,
		BreakerCooldown:  30 * time.Second,
	})
	c.meta = m.Meta() // never dialed: what DialWith would have fetched
	clock := time.Unix(1000, 0)
	c.now = func() time.Time { return clock }
	c.sleep = func(time.Duration) {}
	defer c.Close()

	in := mkBatch(m.D, 2)
	for i := 0; i < 3; i++ {
		if _, _, err := c.PredictBatch(nil, in); err == nil {
			t.Fatalf("call %d against dead server should fail", i)
		}
	}
	if st := c.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("breaker should have opened once after 3 failures: %+v", st)
	}

	// Open: fail fast, no network activity.
	_, _, err = c.PredictBatch(nil, in)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("open breaker should return ErrUnavailable, got %v", err)
	}
	if st := c.Stats(); st.FastFails != 1 {
		t.Fatalf("expected 1 fast-fail: %+v", st)
	}

	// Half-open probe that fails re-opens immediately (server still down).
	clock = clock.Add(31 * time.Second)
	if _, _, err := c.PredictBatch(nil, in); errors.Is(err, ErrUnavailable) || err == nil {
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
	if _, _, err := c.PredictBatch(nil, in); err != nil {
		t.Fatalf("half-open probe against live server failed: %v", err)
	}
	if c.state != breakerClosed {
		t.Fatalf("successful probe should close the breaker, state=%d", c.state)
	}
	if _, _, err := c.PredictBatch(nil, in); err != nil {
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
		_, err := DialWith(l.Addr().String(), opts)
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
// context pool.
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
			c, err := DialWith(srv.Addr().String(), quickOpts())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			in := mkBatch(m1.D, 3)
			for i := 0; i < 25; i++ {
				if _, _, err := c.PredictBatch(nil, in); err != nil {
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
		w := &wireConn{conn: conn}
		callDone <- w.roundTrip(methodPredict, &PredictArgs{Batch: 1}, &PredictReply{}, 5*time.Second)
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
	if _, err := DialWith(srv.Addr().String(), quickOpts()); err == nil {
		t.Fatal("dial after Close should fail")
	}
}

// slowSvc holds a Predict from the moment it signals entered until release
// is closed.
type slowSvc struct {
	unknownSinan
	entered, release chan struct{}
}

func (s *slowSvc) Predict(*PredictArgs, *PredictReply) error {
	s.entered <- struct{}{}
	<-s.release
	return nil
}

// A degraded-capable scheduler stays a Policy even when driven by the
// remote client — compile-time wiring check for the fallback path.
var _ core.Predictor = (*Client)(nil)

// Rollback while the breaker is half-open: a model goes live, the service
// dies long enough to open the client's breaker, and when it comes back
// the operator rolls the model back before any probe has closed the
// breaker. The lifecycle RPCs are operator actions — they bypass the
// breaker, land over a fresh connection, and re-arm the client with the
// restored model's metadata; the next half-open Predict probe then closes
// the breaker against the rolled-back model.
func TestRollbackWhileBreakerHalfOpen(t *testing.T) {
	m1 := tinyHybrid(t)
	m2 := *m1
	m2.RMSEValid = 99 // distinguishable metadata for the swapped-in model
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	svc := NewServiceWith(m1, ServiceOptions{})
	srv, err := Serve(lis, svc)
	if err != nil {
		t.Fatal(err)
	}
	svc.Swap(&m2) // serving m2; m1 retained as the rollback target

	c, err := DialWith(addr, ClientOptions{
		DialTimeout:      500 * time.Millisecond,
		CallTimeout:      500 * time.Millisecond,
		MaxRetries:       -1,
		BreakerThreshold: 3,
		BreakerCooldown:  30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(2000, 0)
	c.now = func() time.Time { return clock }
	c.sleep = func(time.Duration) {}
	defer c.Close()

	in := mkBatch(m1.D, 2)
	if _, _, err := c.PredictBatch(nil, in); err != nil {
		t.Fatalf("healthy predict: %v", err)
	}
	if got := c.Meta().RMSEValid; got != 99 {
		t.Fatalf("client metadata RMSEValid = %v, want the swapped model's 99", got)
	}

	// Outage: three failures open the breaker.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.PredictBatch(nil, in); err == nil {
			t.Fatalf("call %d against dead server should fail", i)
		}
	}
	if st := c.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("breaker should be open: %+v", st)
	}

	// The host restarts with its model state rebuilt (a fresh Service, as
	// a registry-backed host would reload it: m2 live, m1 retained) and
	// the cooldown elapses — the breaker is poised half-open but no probe
	// has run yet.
	svc2 := NewServiceWith(m1, ServiceOptions{})
	svc2.Swap(&m2)
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := Serve(lis2, svc2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	clock = clock.Add(31 * time.Second)

	rb, err := c.Rollback()
	if err != nil {
		t.Fatalf("rollback during half-open window: %v", err)
	}
	if rb.Version != 3 {
		t.Fatalf("rollback generation %d, want 3 (birth, swap, rollback)", rb.Version)
	}
	if got := c.Meta().RMSEValid; got != m1.RMSEValid {
		t.Fatalf("client metadata RMSEValid = %v after rollback, want %v", got, m1.RMSEValid)
	}

	// The probe lands on the restored model and closes the breaker.
	if _, _, err := c.PredictBatch(nil, in); err != nil {
		t.Fatalf("half-open probe after rollback: %v", err)
	}
	if c.state != breakerClosed {
		t.Fatalf("probe success should close the breaker, state=%d", c.state)
	}
}

// metaOnlySinan answers Meta and nothing else: a peer that does not know
// the predict methods.
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
	c, err := DialWith(addr, opts)
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
	if _, err := c.ServerStats(); err == nil {
		t.Fatal("ServerStats against a server without the method succeeded")
	}
	// A method byte outside the protocol is answered the same way: an error
	// frame over a connection that stays in sync, not a hang-up.
	c.mu.Lock()
	err = c.callOnce(0x7f, &struct{}{}, &struct{}{}, time.Second)
	var remote remoteError
	if !errors.As(err, &remote) || !strings.Contains(err.Error(), "unknown method 127") || c.wire == nil {
		t.Errorf("unknown method byte: %v (connection kept: %v), want an error frame and the connection kept", err, c.wire != nil)
	}
	redials := c.redials.Value()
	if err := c.callOnce(methodMeta, &struct{}{}, &MetaReply{}, time.Second); err != nil || c.redials.Value() != redials {
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
	d := c.Meta().D
	s := core.NewScheduler(app, c, core.SchedulerOptions{})
	alloc := make([]float64, d.N)
	stats := make([]cluster.Stats, d.N)
	for i := range alloc {
		alloc[i] = 4
		stats[i] = cluster.Stats{CPUUsage: 1.2, CPULimit: 4, RSS: 100, Cache: 50}
	}
	var perc metrics.Percentiles
	for i := range perc.Values {
		perc.Values[i] = 20
	}
	perc.Count = 100
	var dec runner.Decision
	for i := 0; i < d.T+2; i++ {
		dec = s.Decide(runner.State{Stats: stats, Perc: perc, Alloc: alloc, RPS: 100, QoSMS: app.QoSMS})
	}
	if !dec.Degraded || !s.Degraded() || s.PredictErrors() == 0 {
		t.Fatalf("scheduler did not degrade: %+v (predict errors %d)", dec, s.PredictErrors())
	}
	for i, v := range dec.Alloc {
		if v < alloc[i] {
			t.Fatalf("degraded fallback reclaimed tier %d: %v → %v", i, alloc[i], v)
		}
	}
}

// replySinan answers Meta honestly and every predict with whatever reply the
// test has stored, whatever was asked.
type replySinan struct {
	unknownSinan
	meta  core.ModelMeta
	reply atomic.Pointer[PredictReply]
}

func (s *replySinan) Meta(_ *struct{}, r *MetaReply) error { r.Meta = s.meta; return nil }
func (s *replySinan) Predict(_ *PredictArgs, r *PredictReply) error {
	*r = *s.reply.Load()
	return nil
}
func (s *replySinan) PredictShared(a *PredictArgs, r *PredictReply) error { return s.Predict(a, r) }

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
	c, err := DialWith(addr, opts)
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
			_, _, err = c.PredictBatch(nil, mkBatch(d, batch))
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
	c2, err := DialWith(addr, quickOpts())
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
