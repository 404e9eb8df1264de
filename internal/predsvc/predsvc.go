// Package predsvc implements Sinan's prediction service (Sec. 4.1): in the
// paper the ML models are hosted on a separate GPU server that the
// centralized scheduler queries once per decision interval. Here the
// service exposes the hybrid model over TCP (wire.go) so the scheduler can run
// in a different process (or host) from model inference, exactly mirroring the
// paper's deployment split. A Client implements core.Predictor, so a
// Scheduler works identically against a local model or a remote service.
//
// The client side is built to survive the service: per-call deadlines,
// bounded retries with jittered exponential backoff, automatic redial, and
// a consecutive-failure circuit breaker with half-open probing. A model
// call that exhausts all of that returns an error — never a panic — which
// the scheduler answers by switching to its degraded fallback policy.
package predsvc

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"sinan/internal/core"
	"sinan/internal/lifecycle"
	"sinan/internal/nn"
	"sinan/internal/telemetry"
	"sinan/internal/tensor"
)

// PredictArgs is one model query, in either of two layouts told apart by
// the method. Predict takes a full batch: RH ([Batch·F·N·T]) and LH
// ([Batch·T·M]) repeat the history per candidate. PredictShared takes the
// deduplicated form: every candidate of a decision interval shares one
// history window, so RH ([F·N·T]) and LH ([T·M]) are sent once — against a
// Social Network-sized batch that shrinks the payload by roughly the batch
// size. RC carries the per-candidate allocations ([Batch·N]) in both.
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
// immutable, so the only shared mutable state is a pool of serving scratch
// (one checked out per in-flight request), the lifecycle.Live holding the
// served model, and the gate itself.
type Service struct {
	// live owns the served model, the rollback history behind it, the
	// version numbers and the shadow candidate (see lifecycle.go); the
	// Predict fast path reads it without locks.
	live    *lifecycle.Live
	scratch sync.Pool // *serveScratch
	gate    *gate

	// swapMu serializes the rare-path mutations — Swap, UpdateModel,
	// Rollback, shadow promotion — so each validates and installs against
	// one served model and the version gauge moves in order.
	swapMu  sync.Mutex
	guard   *lifecycle.Gate // nil = updates are not holdout-validated
	shadowN int             // live calls a candidate scores before promoting; 0 = install immediately

	reg       *telemetry.Registry
	rpcLatMS  *telemetry.Histogram // wall time of each Predict RPC, ms
	inflight  *telemetry.Gauge     // Predict RPCs between entry and reply
	rejected  *telemetry.Counter   // malformed requests refused pre-admission
	predicted *telemetry.Counter   // candidate rows served (batch sizes summed)

	updates        *telemetry.Counter // models installed via UpdateModel (incl. shadow promotions)
	updRejected    *telemetry.Counter // updates refused: corrupt, dims, or gate
	rollbacks      *telemetry.Counter // Rollback RPCs that took effect
	shadowPromoted *telemetry.Counter // candidates promoted after shadow scoring
	shadowRejected *telemetry.Counter // candidates disqualified in shadow (or displaced by rollback)
	versionG       *telemetry.Gauge   // current model generation
}

// serveScratch is what one in-flight request borrows from the pool: a
// prediction context and the tensor headers that view the request's
// arguments in place.
type serveScratch struct {
	ctx *core.PredictContext
	in  nn.Inputs
}

// NewServiceWith wraps a hybrid model for serving. The zero options give
// default admission control (concurrency sized to GOMAXPROCS, a small LIFO
// burst queue); a negative MaxConcurrent disables admission control — the
// unprotected baseline.
func NewServiceWith(m *core.HybridModel, opts ServiceOptions) *Service {
	reg := telemetry.NewRegistry()
	s := &Service{
		live:      lifecycle.NewLive(m, 1),
		gate:      newGate(opts, reg),
		guard:     opts.Guard,
		shadowN:   opts.ShadowCalls,
		reg:       reg,
		rpcLatMS:  reg.Histogram("server.rpc.predict.latency_ms"),
		inflight:  reg.Gauge("server.rpc.predict.inflight"),
		rejected:  reg.Counter("server.rpc.predict.rejected"),
		predicted: reg.Counter("server.rpc.predict.rows"),

		updates:        reg.Counter("server.lifecycle.updates"),
		updRejected:    reg.Counter("server.lifecycle.rejected"),
		rollbacks:      reg.Counter("server.lifecycle.rollbacks"),
		shadowPromoted: reg.Counter("server.lifecycle.shadow_promoted"),
		shadowRejected: reg.Counter("server.lifecycle.shadow_rejected"),
		versionG:       reg.Gauge("server.lifecycle.version"),
	}
	s.versionG.Set(1)
	return s
}

// Metrics returns the service's telemetry registry: the admission gate's
// outcome counters and occupancy gauges ("server.admission.*") plus the
// Predict RPC latency histogram and in-flight gauge ("server.rpc.*").
// Export it with telemetry.Serve (the -metrics-addr flag on sinan-serve).
func (s *Service) Metrics() *telemetry.Registry { return s.reg }

// Swap replaces the served model unconditionally (the in-process trusted
// path: the caller has already decided, and m must keep the served dims).
// In-flight requests finish on the model they loaded; new requests see the
// new one. The displaced model is retained for Rollback and the generation
// counter advances, so blind swaps and gated updates share one history.
// Over the wire, use UpdateModel, which validates first.
func (s *Service) Swap(m *core.HybridModel) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	s.install(m)
}

// Predict implements the RPC method for a full batch. Requests pass the
// admission gate before touching the model: saturated, the gate queues
// briefly and sheds (ErrOverloaded) or expires (ErrExpired) the rest, so
// admitted requests keep bounded latency no matter the offered load.
// Validation happens before admission — malformed requests are refused, not
// shed.
func (s *Service) Predict(args *PredictArgs, reply *PredictReply) error {
	return s.serve(args, reply, false)
}

// PredictShared implements the RPC method for the deduplicated form: the
// history window arrives once and only the per-candidate allocation rows
// scale with the batch. Admission, validation and shadow discipline are
// Predict's; only the expected history length and the model entry point
// differ.
func (s *Service) PredictShared(args *PredictArgs, reply *PredictReply) error {
	return s.serve(args, reply, true)
}

// serve is the one admitted serving path behind both RPC methods.
func (s *Service) serve(args *PredictArgs, reply *PredictReply, shared bool) error {
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
	windows := args.Batch // history windows on the wire: one per candidate, or one for all
	if shared {
		windows = 1
	}
	if len(args.RH) != windows*d.F*d.N*d.T ||
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
	sc, _ := s.scratch.Get().(*serveScratch)
	if sc == nil {
		sc = &serveScratch{ctx: core.NewPredictContext()}
	}
	// Return the scratch via defer so the error path recycles it too — an
	// error storm must not churn a fresh context per failed request.
	defer s.scratch.Put(sc)
	in := &sc.in
	in.RH = tensor.View(in.RH, args.RH, windows, d.F, d.N, d.T)
	in.LH = tensor.View(in.LH, args.LH, windows, d.T, d.M)
	in.RC = tensor.View(in.RC, args.RC, args.Batch, d.N)
	// The live model answers; a candidate parked in shadow scores the same
	// inputs on the side, where a failure disqualifies the candidate and
	// never this request.
	var pred *tensor.Dense
	var pviol []float64
	if shared {
		pred, pviol, err = s.live.PredictShared(sc.ctx, nn.SharedInputs(*in))
	} else {
		pred, pviol, err = s.live.PredictBatch(sc.ctx, *in)
	}
	if err != nil {
		return err
	}
	// Copy out of the context before returning: the reply is encoded after
	// this method returns, when another request may be overwriting the
	// context's buffers (the deferred Put runs first). The connection loop's
	// reused reply costs no allocation here; a zero reply gets fresh slices.
	reply.Lat = append(reply.Lat[:0], pred.Data...)
	reply.M = d.M
	reply.PViol = append(reply.PViol[:0], pviol...)
	s.predicted.Add(int64(args.Batch))
	if s.shadowN > 0 {
		s.settleShadow()
	}
	return nil
}

// Meta implements the RPC method. It bypasses the admission gate: metadata
// is a cheap atomic load, and clients probing a saturated service must
// still be able to dial.
func (s *Service) Meta(_ *struct{}, reply *MetaReply) error {
	reply.Meta = s.live.Meta()
	return nil
}

// Stats implements the RPC method: a snapshot of the admission gate's
// counters, for operational visibility and the overload experiment. Like
// Meta it bypasses the gate.
func (s *Service) Stats(_ *struct{}, reply *StatsReply) error {
	reply.Stats = s.gate.stats()
	return nil
}

// StatsSnapshot returns the admission-control counters for in-process
// callers.
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

// ClientOptions tunes the resilient client. The zero value means "use
// defaults" for every field.
type ClientOptions struct {
	DialTimeout time.Duration // TCP connect + initial Meta deadline (default 2s)
	CallTimeout time.Duration // per-call deadline (default 1s)
	MaxRetries  int           // additional attempts after the first (default 2; negative = none)
	BackoffBase time.Duration // first retry delay (default 50ms)
	BackoffMax  time.Duration // retry delay ceiling (default 500ms)

	// BreakerThreshold consecutive failed calls open the breaker (default
	// 5); after BreakerCooldown (default 5s) it goes half-open and admits a
	// probe. A probe success closes it, a failure re-opens it.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// jitterSeed seeds the client's backoff jitter stream, so retry pacing is
// reproducible.
const jitterSeed = 1

// adminTimeout bounds lifecycle RPCs (UpdateModel, Rollback): artifact
// uploads carry whole models plus a server-side gate replay, so they get a
// longer leash than Predict calls.
const adminTimeout = 10 * time.Second

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 500 * time.Millisecond
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	return o
}

// ClientStats counts what the resilient client has done, for experiment
// tables and operational visibility. Sheds and DeadlineExceeded are kept
// apart from generic Errors so chaos experiments can distinguish "server
// dead" (redials climbing) from "server shedding" (sheds climbing while
// the connection stays up). It is a thin view assembled from the client's
// telemetry registry (the counters under "client.*"); the struct form is
// kept so experiment tables and tests keep working unchanged.
type ClientStats struct {
	Calls            int // PredictBatch invocations
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
	opts ClientOptions

	mu         sync.Mutex
	wire       *wireConn // nil between a dropped connection and the next redial
	meta       core.ModelMeta
	state      int // breaker
	fails      int // consecutive failures
	openedA    time.Time
	jitter     *rand.Rand
	lastCostMS float64 // wall cost of the last successful predict call

	// One predict call's request and reply, reused under mu. The reply's
	// slices are pointed at the caller's PredictContext for each call.
	args  PredictArgs
	reply PredictReply

	// Telemetry instruments ("client.*"). Handles are rebindable via
	// AttachMetrics so a run harness can gather the client's counters in a
	// per-run registry.
	reg              *telemetry.Registry
	calls            *telemetry.Counter
	errs             *telemetry.Counter
	retries          *telemetry.Counter
	redials          *telemetry.Counter
	breakerOpens     *telemetry.Counter
	fastFails        *telemetry.Counter
	sheds            *telemetry.Counter
	deadlineExceeded *telemetry.Counter
	breakerState     *telemetry.Gauge     // 0 closed, 1 open, 2 half-open
	predLatMS        *telemetry.Histogram // wall cost of successful PredictBatch calls

	// Test seams; wall-clock time never influences predictions, only retry
	// pacing and breaker cooldowns.
	now   func() time.Time
	sleep func(time.Duration)
}

func newClient(addr string, opts ClientOptions) *Client {
	o := opts.withDefaults()
	c := &Client{
		addr:   addr,
		opts:   o,
		jitter: rand.New(rand.NewSource(jitterSeed)),
		now:    time.Now,
		sleep:  time.Sleep,
	}
	c.bindLocked(telemetry.NewRegistry())
	return c
}

// bindLocked resolves the client's instrument handles from reg. Caller
// holds c.mu (or owns the client exclusively, as in newClient).
func (c *Client) bindLocked(reg *telemetry.Registry) {
	c.reg = reg
	c.calls = reg.Counter("client.predict.calls")
	c.errs = reg.Counter("client.predict.errors")
	c.retries = reg.Counter("client.predict.retries")
	c.redials = reg.Counter("client.redials")
	c.breakerOpens = reg.Counter("client.breaker.opens")
	c.fastFails = reg.Counter("client.breaker.fastfails")
	c.sheds = reg.Counter("client.predict.sheds")
	c.deadlineExceeded = reg.Counter("client.predict.deadline_exceeded")
	c.breakerState = reg.Gauge("client.breaker.state")
	c.predLatMS = reg.Histogram("client.predict.latency_ms")
}

// AttachMetrics implements telemetry.Attacher: it rebinds the client's
// instruments onto reg so subsequent activity is counted there. Counts
// recorded on the previous registry stay there.
func (c *Client) AttachMetrics(reg *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bindLocked(reg)
}

// Dial connects to a prediction service with default options.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, ClientOptions{})
}

// DialWith connects to a prediction service and fetches the model
// metadata. Both the TCP connect and the initial Meta call are bounded by
// DialTimeout, so a black-holed address fails fast instead of hanging the
// scheduler at startup.
func DialWith(addr string, opts ClientOptions) (*Client, error) {
	c := newClient(addr, opts)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.redial(); err != nil {
		return nil, err
	}
	var mr MetaReply
	if err := c.callOnce(methodMeta, &struct{}{}, &mr, c.opts.DialTimeout); err != nil {
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
	if c.wire == nil {
		return nil
	}
	err := c.wire.conn.Close()
	c.wire = nil
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

// ServerStats fetches the service's admission-control counters over the
// wire.
func (c *Client) ServerStats() (ServerStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var reply StatsReply
	if err := c.callOnce(methodStats, &struct{}{}, &reply, c.opts.CallTimeout); err != nil {
		c.dropConn()
		return ServerStats{}, err
	}
	return reply.Stats, nil
}

// PredictBatch implements core.Predictor by delegating to the service. The
// reply is decoded into ctx (its Lat and PViol), which owns the answer until
// its next use, as with a local model; the shared Client keeps nothing of
// it. A nil ctx gets fresh buffers.
func (c *Client) PredictBatch(ctx *core.PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	return c.predict(methodPredict, ctx, in)
}

// PredictShared implements core.SharedPredictor over the wire: one history
// window plus per-candidate allocation rows per query, answered into ctx
// like PredictBatch.
func (c *Client) PredictShared(ctx *core.PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	return c.predict(methodPredictShared, ctx, nn.Inputs(in))
}

// predict is the one breaker-checked call behind both query forms: bounded
// retries with jittered backoff and a fresh connection, typed shed and
// expiry handling, breaker and latency accounting on the way out. When the
// service stays down — or does not know the method — the error is returned
// to the scheduler, which runs its degraded fallback policy, and repeated
// failures trip the circuit breaker so subsequent calls fail fast until a
// cooldown probe succeeds.
func (c *Client) predict(method byte, ctx *core.PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
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
		Batch: in.RC.Shape[0], // candidates; in the shared form RH/LH hold one window
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
		err = c.callOnce(method, args, reply, c.opts.CallTimeout)
		if m := c.meta.D.M; err == nil && (reply.M != m || len(reply.Lat) != args.Batch*m || len(reply.PViol) != args.Batch) {
			// It would panic the view below or the scheduler's indexing.
			err = fmt.Errorf("predsvc: reply of %d latencies (M = %d), %d violation probabilities does not answer %d candidates × %d percentiles", len(reply.Lat), reply.M, len(reply.PViol), args.Batch, m)
		}
		if err == nil {
			c.breakerSuccess()
			c.lastCostMS = float64(c.now().Sub(start)) / float64(time.Millisecond)
			c.predLatMS.Observe(c.lastCostMS)
			ctx.Lat = tensor.View(ctx.Lat, reply.Lat, args.Batch, reply.M)
			ctx.PViol = reply.PViol
			return ctx.Lat, ctx.PViol, nil
		}
		if IsOverloaded(err) {
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
		if IsExpired(err) {
			// The server dropped the request as already-expired: a deadline
			// loss, but over a healthy connection — retry without redialing.
			c.deadlineExceeded.Inc()
		} else {
			c.dropConn()
		}
		if attempt >= c.opts.MaxRetries {
			break
		}
		c.retries.Inc()
		c.sleep(c.backoff(attempt))
	}
	c.breakerFailure()
	c.errs.Inc()
	return nil, nil, fmt.Errorf("predsvc: predict RPC failed after %d attempts: %w", c.opts.MaxRetries+1, err)
}

// callOnce performs one attempt on the current connection (dialing a fresh
// one if needed) with a hard deadline. A handler's error leaves the connection
// up; any other — transport, deadline, malformed reply — closes it, so that a
// late reply can never be read as the next call's. Caller holds c.mu.
func (c *Client) callOnce(method byte, args, reply any, timeout time.Duration) error {
	if c.wire == nil {
		if err := c.redial(); err != nil {
			return err
		}
	}
	err := c.wire.roundTrip(method, args, reply, timeout)
	if _, remote := err.(remoteError); err == nil || remote {
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
	c.wire = &wireConn{conn: conn}
	c.redials.Inc()
	return nil
}

// dropConn discards the current connection so the next attempt redials.
// Caller holds c.mu.
func (c *Client) dropConn() {
	if c.wire != nil {
		c.wire.conn.Close()
	}
	c.wire = nil
}

// backoff returns the jittered exponential delay before retry attempt+1.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.BackoffBase << uint(attempt)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	// Full jitter in [d/2, d): desynchronises replicas retrying the same
	// dead service without stretching the worst case.
	return d/2 + time.Duration(c.jitter.Int63n(int64(d/2)+1))
}

func (c *Client) breakerAllow() bool {
	switch c.state {
	case breakerClosed, breakerHalfOpen:
		return true
	default: // open: admit a probe once the cooldown has elapsed
		if c.now().Sub(c.openedA) >= c.opts.BreakerCooldown {
			c.setBreaker(breakerHalfOpen)
			return true
		}
		return false
	}
}

// setBreaker transitions the breaker and mirrors the state into its gauge.
func (c *Client) setBreaker(state int) {
	c.state = state
	c.breakerState.Set(float64(state))
}

func (c *Client) breakerSuccess() {
	c.fails = 0
	c.setBreaker(breakerClosed)
}

func (c *Client) breakerFailure() {
	c.fails++
	if c.state == breakerHalfOpen || c.fails >= c.opts.BreakerThreshold {
		if c.state != breakerOpen {
			c.breakerOpens.Inc()
		}
		c.setBreaker(breakerOpen)
		c.openedA = c.now()
		c.fails = 0
	}
}
