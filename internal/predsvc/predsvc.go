// Package predsvc implements Sinan's prediction service (Sec. 4.1): in the
// paper the ML models are hosted on a separate GPU server that the
// centralized scheduler queries once per decision interval. Here the
// service exposes the hybrid model over TCP (wire.go) so the scheduler can run
// in a different process (or host) from model inference, exactly mirroring the
// paper's deployment split. A Client implements core.Predictor, so a
// Scheduler works identically against a local model or a remote service.
//
// The client side is built to survive the service: per-call deadlines,
// bounded retries with exponential backoff, automatic redial, and
// a consecutive-failure circuit breaker with half-open probing. A model
// call that exhausts all of that returns an error — never a panic — which
// the scheduler answers by switching to its degraded fallback policy.
package predsvc

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"sinan/internal/core"
	"sinan/internal/lifecycle"
	"sinan/internal/nn"
	"sinan/internal/telemetry"
	"sinan/internal/tensor"
	"sinan/internal/wire"
)

// PredictArgs is one model query: RC carries the per-candidate allocations
// ([Batch·N]) and RH ([W·F·N·T]) and LH ([W·T·M]) carry W history windows,
// W = 1 or W = Batch (nn.SharedInputs), which the server reads off RH's
// length. The scheduler sends W = 1 — every candidate of a decision interval
// shares one window — which against a Social Network-sized batch shrinks the
// payload by roughly the batch size.
//
// DeadlineMS, when positive, is the caller's remaining deadline budget in
// milliseconds, measured from the server's receipt of the request (a
// relative budget needs no clock synchronisation): the server drops the
// request instead of executing it once that budget is spent, because the
// client has already timed out and the answer would be wasted work.
type PredictArgs struct {
	RH, LH, RC []float64
	Batch      int
	DeadlineMS float64
}

// PredictReply carries per-candidate latency predictions (ms, Batch×M,
// row-major) and violation probabilities.
type PredictReply struct {
	Lat   []float64
	M     int
	PViol []float64
}

// MetaReply carries the model metadata the scheduler's filters need.
type MetaReply struct {
	Meta core.ModelMeta
}

// Service is the model host behind the wire. Concurrent Predict calls run in
// parallel up to the admission gate's concurrency limit: a trained model is
// immutable and each connection owns its serving scratch, so the only shared
// mutable state is the lifecycle.Live holding the served model and the gate
// itself.
type Service struct {
	// live owns the served model and the version numbers; the Predict fast
	// path reads it without locks.
	live *lifecycle.Live
	gate *gate

	// swapMu serializes Swaps, so the version gauge moves in order.
	swapMu sync.Mutex

	reg       *telemetry.Registry
	rpcLatMS  *telemetry.Histogram // wall time of each Predict RPC, ms
	inflight  *telemetry.Gauge     // Predict RPCs between entry and reply
	rejected  *telemetry.Counter   // malformed requests refused pre-admission
	predicted *telemetry.Counter   // candidate rows served (batch sizes summed)
	versionG  *telemetry.Gauge     // the served model's identity version
}

// serveScratch is what a request is served with: a prediction context and
// the tensor headers that view the request's arguments in place. A
// connection owns one and carries one request at a time (serveConn); an
// in-process call gets a fresh one.
type serveScratch struct {
	ctx *core.PredictContext
	in  nn.SharedInputs
}

func newServeScratch() *serveScratch { return &serveScratch{ctx: core.NewPredictContext()} }

// NewServiceWith wraps a hybrid model for serving. The zero options give
// default admission control (concurrency sized to GOMAXPROCS, a small LIFO
// burst queue); a negative MaxConcurrent disables admission control — the
// unprotected baseline.
func NewServiceWith(m *core.HybridModel, opts ServiceOptions) *Service {
	reg := telemetry.NewRegistry()
	s := &Service{
		live:      lifecycle.NewLive(m, 1),
		gate:      newGate(opts, reg),
		reg:       reg,
		rpcLatMS:  reg.Histogram("server.rpc.predict.latency_ms"),
		inflight:  reg.Gauge("server.rpc.predict.inflight"),
		rejected:  reg.Counter("server.rpc.predict.rejected"),
		predicted: reg.Counter("server.rpc.predict.rows"),
		versionG:  reg.Gauge("server.lifecycle.version"),
	}
	s.versionG.Set(1)
	return s
}

// Metrics returns the service's telemetry registry: the admission gate's
// outcome counters and queue high-water mark ("server.admission.*") plus the
// Predict RPC latency histogram and in-flight gauge ("server.rpc.*").
// Export it with telemetry.Serve (the -metrics-addr flag on sinan-serve).
func (s *Service) Metrics() *telemetry.Registry { return s.reg }

// Swap replaces the served model unconditionally (the in-process trusted
// path: the caller has already decided, and m must keep the served dims).
// In-flight requests finish on the model they loaded; new requests see the
// new one. The new model's identity version, exported as the
// "server.lifecycle.version" gauge, is the next unused one.
func (s *Service) Swap(m *core.HybridModel) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	s.versionG.Set(float64(s.live.Install(m)))
}

// Predict serves a query in process, with a fresh serving scratch; a
// connection serves its queries through predict with its own.
func (s *Service) Predict(args *PredictArgs, reply *PredictReply) error {
	return s.predict(newServeScratch(), args, reply)
}

// predict is the one serving path, served with sc's context and views.
// Requests pass the admission gate before touching the model: saturated,
// the gate queues briefly and sheds (ErrOverloaded) or expires (ErrExpired)
// the rest, so admitted requests keep bounded latency no matter the offered
// load. Validation happens before admission: a malformed request — RH and
// LH not holding the same W windows, W = 1 or Batch, or RC not Batch rows —
// is refused, not shed.
func (s *Service) predict(sc *serveScratch, args *PredictArgs, reply *PredictReply) error {
	start := s.gate.now()
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.rpcLatMS.Observe(float64(s.gate.now().Sub(start)) / float64(time.Millisecond))
	}()
	d := s.live.Meta().D
	if args.Batch <= 0 {
		s.rejected.Inc()
		return fmt.Errorf("predsvc: non-positive batch %d", args.Batch)
	}
	win := d.F * d.N * d.T
	windows := len(args.RH) / win // one for all candidates, or one each
	if (windows != 1 && windows != args.Batch) ||
		len(args.RH) != windows*win ||
		len(args.LH) != windows*d.T*d.M ||
		len(args.RC) != args.Batch*d.N {
		s.rejected.Inc()
		return fmt.Errorf("predsvc: input sizes %d/%d/%d do not match batch %d with %d history window(s) and dims %+v",
			len(args.RH), len(args.LH), len(args.RC), args.Batch, windows, d)
	}
	var deadline time.Time
	if args.DeadlineMS > 0 {
		deadline = s.gate.now().Add(time.Duration(args.DeadlineMS * float64(time.Millisecond)))
	}
	release, err := s.gate.acquire(deadline)
	if err != nil {
		return err
	}
	defer release()
	in := &sc.in
	in.RH = tensor.View(in.RH, args.RH, windows, d.F, d.N, d.T)
	in.LH = tensor.View(in.LH, args.LH, windows, d.T, d.M)
	in.RC = tensor.View(in.RC, args.RC, args.Batch, d.N)
	pred, pviol, err := s.live.PredictShared(sc.ctx, *in)
	if err != nil {
		return err
	}
	// The reply owns its slices: the connection loop's reused reply costs no
	// allocation here; a zero reply gets fresh slices.
	reply.Lat = append(reply.Lat[:0], pred.Data...)
	reply.M = d.M
	reply.PViol = append(reply.PViol[:0], pviol...)
	s.predicted.Add(int64(args.Batch))
	return nil
}

// Meta implements the RPC method. It bypasses the admission gate: metadata
// is a cheap atomic load, and clients probing a saturated service must
// still be able to dial.
func (s *Service) Meta(_ *struct{}, reply *MetaReply) error {
	reply.Meta = s.live.Meta()
	return nil
}

// StatsSnapshot returns the admission-control counters. Out of process they
// are read from the service's registry (Metrics, sinan-serve -metrics-addr).
func (s *Service) StatsSnapshot() ServerStats { return s.gate.stats() }

// Server owns a serving listener and tracks every connection it has
// accepted, so Close can shut down gracefully: stop accepting, stop
// reading new requests, drain in-flight RPCs, then release the sockets.
type Server struct {
	lis  net.Listener
	gate *gate // drained by Close; nil when a test serves a fake handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// Close shuts the server down gracefully: the listener closes first (no
// new connections), then every tracked connection stops reading (no new
// requests; each connection's loop answers the one in flight before it sees
// the end of input and exits), then the admission gate drains — requests
// already executing finish normally, requests still queued for a slot are
// rejected with a shed error so their goroutines answer immediately — and
// Close blocks until all connection goroutines have drained. Safe to call
// more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	err := s.lis.Close()
	for conn := range s.conns {
		if cr, ok := conn.(interface{ CloseRead() error }); ok {
			cr.CloseRead()
		} else {
			conn.Close()
		}
	}
	s.mu.Unlock()
	if s.gate != nil {
		s.gate.close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.wg.Done()
}

// Serve accepts connections on l and answers them from svc until the server
// is closed. The returned Server handle exposes Addr and graceful Close; the
// error is always nil.
func Serve(l net.Listener, svc *Service) (*Server, error) {
	return serve(l, svc, svc.gate), nil
}

// serve is Serve over any handler, one serveConn goroutine per connection.
func serve(l net.Listener, h handler, g *gate) *Server {
	s := &Server{lis: l, gate: g, conns: make(map[net.Conn]struct{})}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if !s.track(conn) {
				conn.Close()
				return
			}
			go func() {
				defer s.untrack(conn)
				serveConn(conn, h)
			}()
		}
	}()
	return s
}

// ListenAndServe starts the service on the given TCP address with default
// admission control and returns the server handle (Close it to stop) plus
// the service for model swaps.
func ListenAndServe(addr string, m *core.HybridModel) (*Server, *Service, error) {
	return ListenAndServeWith(addr, m, ServiceOptions{})
}

// ListenAndServeWith is ListenAndServe with explicit admission options.
func ListenAndServeWith(addr string, m *core.HybridModel, opts ServiceOptions) (*Server, *Service, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	svc := NewServiceWith(m, opts)
	s, err := Serve(l, svc)
	return s, svc, err
}

// ErrUnavailable is returned without touching the network while the
// client's circuit breaker is open: the service has failed enough times in
// a row that hammering it would only add load and latency. The scheduler
// treats it like any other predictor error and stays in degraded mode; the
// breaker lets a probe through once the cooldown elapses.
var ErrUnavailable = errors.New("predsvc: prediction service unavailable (circuit open)")

// clientOptions tunes the resilient client. Programs dial with
// defaultClientOptions; tests copy it and shorten what they exercise.
type clientOptions struct {
	DialTimeout time.Duration // TCP connect + initial Meta deadline
	CallTimeout time.Duration // per-call deadline
	MaxRetries  int           // additional attempts after the first
	Backoff     wire.Backoff  // delay before each retry

	// BreakerThreshold consecutive failed calls open the breaker; after
	// BreakerCooldown it goes half-open and admits a probe. A probe success
	// closes it, a failure re-opens it.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

var defaultClientOptions = clientOptions{
	DialTimeout:      2 * time.Second,
	CallTimeout:      time.Second,
	MaxRetries:       2,
	Backoff:          wire.ClientRetry,
	BreakerThreshold: 5,
	BreakerCooldown:  5 * time.Second,
}

// ClientStats counts what the resilient client has done, for experiment
// tables and operational visibility. Sheds and DeadlineExceeded are kept
// apart from generic Errors so chaos experiments can distinguish "server
// dead" (redials climbing) from "server shedding" (sheds climbing while
// the connection stays up). It is a thin view assembled from the client's
// telemetry registry (the counters under "client.*"); the struct form is
// kept so experiment tables and tests keep working unchanged.
type ClientStats struct {
	Calls            int // predict calls, fast-failed ones included
	Errors           int // invocations that returned an error
	Retries          int // extra attempts after a failed one
	Redials          int // reconnections established
	BreakerOpens     int // closed→open transitions
	FastFails        int // calls rejected by an open breaker
	Sheds            int // calls the server's admission control shed
	DeadlineExceeded int // attempts abandoned at a deadline (local timer or server-side expiry)
}

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Client is a remote hybrid model; it implements core.Predictor so the
// online scheduler can be pointed at a prediction service transparently.
// Calls are serialized by an internal mutex — the scheduler queries once
// per decision interval, so there is nothing to win by pipelining — and a
// failed transport is redialed on the next attempt rather than poisoning
// the client.
type Client struct {
	addr string
	opts clientOptions

	mu         sync.Mutex
	conn       *wire.Conn // nil between a dropped connection and the next redial
	meta       core.ModelMeta
	state      int // breaker
	fails      int // consecutive failures
	openedA    time.Time
	lastCostMS float64 // wall cost of the last successful predict call

	// One predict call's request and reply, reused under mu. The reply's
	// slices are pointed at the caller's PredictContext for each call.
	args  PredictArgs
	reply PredictReply

	// Telemetry instruments ("client.*"). Handles are rebindable via
	// AttachMetrics so a run harness can gather the client's counters in a
	// per-run registry.
	calls            *telemetry.Counter
	errs             *telemetry.Counter
	retries          *telemetry.Counter
	redials          *telemetry.Counter
	breakerOpens     *telemetry.Counter
	fastFails        *telemetry.Counter
	sheds            *telemetry.Counter
	deadlineExceeded *telemetry.Counter

	// Test seams; wall-clock time never influences predictions, only retry
	// pacing and breaker cooldowns.
	now   func() time.Time
	sleep func(time.Duration)
}

func newClient(addr string, opts clientOptions) *Client {
	c := &Client{
		addr:  addr,
		opts:  opts,
		now:   time.Now,
		sleep: time.Sleep,
	}
	c.bindLocked(telemetry.NewRegistry())
	return c
}

// bindLocked resolves the client's instrument handles from reg. Caller
// holds c.mu (or owns the client exclusively, as in newClient).
func (c *Client) bindLocked(reg *telemetry.Registry) {
	c.calls = reg.Counter("client.predict.calls")
	c.errs = reg.Counter("client.predict.errors")
	c.retries = reg.Counter("client.predict.retries")
	c.redials = reg.Counter("client.redials")
	c.breakerOpens = reg.Counter("client.breaker.opens")
	c.fastFails = reg.Counter("client.breaker.fastfails")
	c.sheds = reg.Counter("client.predict.sheds")
	c.deadlineExceeded = reg.Counter("client.predict.deadline_exceeded")
}

// AttachMetrics implements telemetry.Attacher: it rebinds the client's
// instruments onto reg so subsequent activity is counted there. Counts
// recorded on the previous registry stay there.
func (c *Client) AttachMetrics(reg *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bindLocked(reg)
}

// Dial connects to a prediction service and fetches the model metadata.
// Both the TCP connect and the initial Meta call are bounded by the dial
// timeout, so a black-holed address fails fast instead of hanging the
// scheduler at startup.
func Dial(addr string) (*Client, error) {
	return dialWith(addr, defaultClientOptions)
}

func dialWith(addr string, opts clientOptions) (*Client, error) {
	c := newClient(addr, opts)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.redial(); err != nil {
		return nil, err
	}
	var mr MetaReply
	if err := c.callOnce(methodMeta, noArgs{}, &mr, c.opts.DialTimeout); err != nil {
		c.dropConn()
		return nil, fmt.Errorf("predsvc: initial metadata fetch: %w", err)
	}
	c.meta = mr.Meta
	return c, nil
}

// Close releases the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Meta implements core.Predictor; metadata is fetched once at dial time
// (it only changes on a model swap, which keeps dims compatible).
func (c *Client) Meta() core.ModelMeta {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta
}

// Stats returns a snapshot of the client's resilience counters, assembled
// as a view over the telemetry registry.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ClientStats{
		Calls:            int(c.calls.Value()),
		Errors:           int(c.errs.Value()),
		Retries:          int(c.retries.Value()),
		Redials:          int(c.redials.Value()),
		BreakerOpens:     int(c.breakerOpens.Value()),
		FastFails:        int(c.fastFails.Value()),
		Sheds:            int(c.sheds.Value()),
		DeadlineExceeded: int(c.deadlineExceeded.Value()),
	}
}

// LastPredictMS implements core.CostReporter: the wall-clock cost of the
// last successful predict call (retries included). The scheduler's brownout
// ladder uses it to shrink candidate batches while the service is slow but
// not yet failing.
func (c *Client) LastPredictMS() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastCostMS
}

// PredictShared implements core.Predictor by delegating to the service. The
// reply is decoded into ctx (its Lat and PViol), which owns the answer until
// its next use, as with a local model; the shared Client keeps nothing of
// it. A nil ctx gets fresh buffers. The call is breaker-checked: bounded
// retries with backoff and a fresh connection, typed shed and expiry
// handling, breaker and latency accounting on the way out. When the service
// stays down the error is returned to the scheduler, which runs its
// degraded fallback policy, and repeated failures trip the circuit breaker
// so subsequent calls fail fast until a cooldown probe succeeds.
func (c *Client) PredictShared(ctx *core.PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	if ctx == nil {
		ctx = core.NewPredictContext()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	args, reply := &c.args, &c.reply
	*args = PredictArgs{
		RH:    in.RH.Data,
		LH:    in.LH.Data,
		RC:    in.RC.Data,
		Batch: in.Batch(),
		// Propagate the per-call deadline so the server can drop this
		// request once we have given up waiting for it.
		DeadlineMS: float64(c.opts.CallTimeout) / float64(time.Millisecond),
	}
	// The reply decodes into ctx's storage: the answer is the caller's.
	reply.Lat, reply.PViol = nil, ctx.PViol
	if ctx.Lat != nil {
		reply.Lat = ctx.Lat.Data
	}
	c.calls.Inc()
	if !c.breakerAllow() {
		c.fastFails.Inc()
		c.errs.Inc()
		return nil, nil, ErrUnavailable
	}
	start := c.now()
	var err error
	for attempt := 0; ; attempt++ {
		err = c.callOnce(methodPredict, args, reply, c.opts.CallTimeout)
		if m := c.meta.D.M; err == nil && (reply.M != m || len(reply.Lat) != args.Batch*m || len(reply.PViol) != args.Batch) {
			// It would panic the view below or the scheduler's indexing.
			err = fmt.Errorf("predsvc: reply of %d latencies (M = %d), %d violation probabilities does not answer %d candidates × %d percentiles", len(reply.Lat), reply.M, len(reply.PViol), args.Batch, m)
		}
		if err == nil {
			c.breakerSuccess()
			c.lastCostMS = float64(c.now().Sub(start)) / float64(time.Millisecond)
			ctx.Lat = tensor.View(ctx.Lat, reply.Lat, args.Batch, reply.M)
			ctx.PViol = reply.PViol
			return ctx.Lat, ctx.PViol, nil
		}
		if core.IsOverload(err) {
			// Shed: the service is alive but saturated. Retrying now would
			// add exactly the load it is shedding, so fail the call with
			// the typed overload error — the scheduler answers by browning
			// out, and the breaker still counts it (sustained shedding
			// eventually opens it, giving the server air). The connection
			// stays up: the server answered, the transport is healthy.
			c.sheds.Inc()
			c.errs.Inc()
			c.breakerFailure()
			return nil, nil, fmt.Errorf("predsvc: predict shed by overloaded service: %w", ErrOverloaded)
		}
		if errors.Is(err, ErrExpired) {
			// The server dropped the request as already-expired: a deadline
			// loss over a connection that, like every whole reply's, stays up.
			c.deadlineExceeded.Inc()
		}
		if attempt >= c.opts.MaxRetries {
			break
		}
		c.retries.Inc()
		c.sleep(c.opts.Backoff.Delay(attempt))
	}
	c.breakerFailure()
	c.errs.Inc()
	return nil, nil, fmt.Errorf("predsvc: predict RPC failed after %d attempts: %w", c.opts.MaxRetries+1, err)
}

// PredictBatch is PredictShared at W = B, kept for core.SharedPredictor
// only; ROADMAP item 7(iii) deletes it.
func (c *Client) PredictBatch(ctx *core.PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	return c.PredictShared(ctx, nn.SharedInputs(in))
}

// callOnce performs one attempt on the current connection (dialing a fresh
// one if needed) with a hard deadline. A handler's error leaves the connection
// up; any other — transport, deadline, malformed reply — closes it, so that a
// late reply can never be read as the next call's. Caller holds c.mu.
func (c *Client) callOnce(method byte, args, reply body, timeout time.Duration) error {
	if c.conn == nil {
		if err := c.redial(); err != nil {
			return err
		}
	}
	err := roundTrip(c.conn, method, args, reply, timeout)
	if _, remote := err.(*remoteError); err == nil || remote {
		return err
	}
	c.dropConn()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		c.deadlineExceeded.Inc()
		return fmt.Errorf("predsvc: call deadline (%v) exceeded", timeout)
	}
	return err
}

// redial establishes a fresh connection. Caller holds c.mu.
func (c *Client) redial() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return err
	}
	c.conn = &wire.Conn{Conn: conn}
	c.redials.Inc()
	return nil
}

// dropConn discards the current connection so the next attempt redials.
// Caller holds c.mu.
func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn = nil
}

func (c *Client) breakerAllow() bool {
	switch c.state {
	case breakerClosed, breakerHalfOpen:
		return true
	default: // open: admit a probe once the cooldown has elapsed
		if c.now().Sub(c.openedA) >= c.opts.BreakerCooldown {
			c.state = breakerHalfOpen
			return true
		}
		return false
	}
}

func (c *Client) breakerSuccess() {
	c.fails = 0
	c.state = breakerClosed
}

func (c *Client) breakerFailure() {
	c.fails++
	if c.state == breakerHalfOpen || c.fails >= c.opts.BreakerThreshold {
		if c.state != breakerOpen {
			c.breakerOpens.Inc()
		}
		c.state = breakerOpen
		c.openedA = c.now()
		c.fails = 0
	}
}
