// Model lifecycle over the wire: the calls that let a trainer push a new
// model into a running prediction service without ever leaving the
// scheduler predictor-less. An update arrives as a checksummed lifecycle
// artifact (corrupt bytes are refused, never panic), passes the service's
// validation gate if one is configured, optionally shadow-scores against
// live Predict traffic, and only then becomes the served model. The served
// model, the bounded history that makes Rollback a local operation, the
// version numbers and the shadow scorer all live in the service's
// lifecycle.Live — the same mechanism the in-process Manager drives; this
// file only adds the wire forms, the gate call, and the service's promotion
// policy (after ShadowCalls scored calls).
//
// Both RPCs are deliberately rare-path: they serialize on swapMu and never
// touch the Predict fast path, which stays a lock-free atomic load.
package predsvc

import (
	"errors"
	"fmt"
	"strings"

	"sinan/internal/core"
	"sinan/internal/lifecycle"
)

// UpdateModelArgs carries a candidate model as a lifecycle artifact
// (magic + manifest + checksummed payload). The envelope — not a raw gob —
// is the wire format so the server verifies integrity and dims fingerprint
// before the payload is even decoded.
type UpdateModelArgs struct {
	Artifact []byte
}

// UpdateModelReply reports what the service did with the candidate.
type UpdateModelReply struct {
	// Version is the service's model generation after this call. It
	// increments on every served-model change (install or rollback); an
	// update parked in shadow keeps the current generation until promoted.
	Version int
	// Pending is true when the candidate passed the gate but is now shadow
	// scoring against live traffic; promotion happens automatically after
	// ShadowCalls successful observations.
	Pending bool
	// Manifest echoes the decoded artifact manifest (version, checksum,
	// training provenance).
	Manifest lifecycle.Manifest
	// Gate is the validation-gate report when the service has a gate
	// configured (zero otherwise).
	Gate lifecycle.GateReport
}

// RollbackArgs is empty; rollback always targets the most recent
// predecessor retained in the service's history.
type RollbackArgs struct{}

// RollbackReply reports the generation after the rollback took effect.
type RollbackReply struct {
	Version int
	// Depth is how many more rollbacks remain possible.
	Depth int
}

// errNoHistory rejects a rollback with nothing to roll back to.
var errNoHistory = errors.New("predsvc: rollback rejected: no previous model retained")

// rejectedPrefix marks server-side lifecycle refusals so clients can tell
// "the server examined and declined this model" (an application outcome;
// the connection is healthy) from a transport failure. A handler's error
// crosses the wire as its message, so the prefix is the classification.
const rejectedPrefix = "predsvc: update rejected"

// IsUpdateRejected reports whether err is a lifecycle refusal — corrupt
// artifact, dims mismatch, gate rejection, or empty rollback history — in
// local or wire form. A refusal means the server is healthy and still
// serving its previous model.
func IsUpdateRejected(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, rejectedPrefix) || strings.Contains(msg, errNoHistory.Error())
}

// UpdateModel implements the RPC method: decode → fingerprint check →
// validation gate → shadow or install. Every refusal is an error return
// with the service still on its previous model; nothing in this path can
// panic on hostile bytes (lifecycle.Decode verifies the checksum before
// gob sees the payload, and decoded tensors are shape-validated).
func (s *Service) UpdateModel(args *UpdateModelArgs, reply *UpdateModelReply) error {
	cand, man, err := lifecycle.Decode(args.Artifact)
	if err != nil {
		s.updRejected.Inc()
		return fmt.Errorf("%s: %w", rejectedPrefix, err)
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cur := s.live.Current()
	if d := cur.Meta().D; cand.D != d {
		s.updRejected.Inc()
		return fmt.Errorf("%s: dims %+v do not match served model %+v", rejectedPrefix, cand.D, d)
	}
	if s.guard != nil {
		rep, gerr := s.guard.Validate(cur, cand)
		reply.Gate = rep
		if gerr != nil {
			s.updRejected.Inc()
			return fmt.Errorf("%s by validation gate: %w", rejectedPrefix, gerr)
		}
	}
	reply.Manifest = man
	if s.shadowN > 0 {
		// Park the candidate for shadow scoring. A newer update replaces
		// any candidate already in shadow — last write wins, and the
		// displaced candidate simply never promotes.
		s.live.Shadow(cand, nil)
		reply.Pending = true
		reply.Version = s.live.Generation()
		return nil
	}
	reply.Version = s.install(cand)
	s.updates.Inc()
	return nil
}

// Rollback implements the RPC method: restore the most recent predecessor,
// discarding any candidate still in shadow.
func (s *Service) Rollback(_ *RollbackArgs, reply *RollbackReply) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.live.ShadowPending() {
		s.shadowRejected.Inc()
	}
	if _, ok := s.live.Rollback(); !ok {
		return errNoHistory
	}
	s.rollbacks.Inc()
	reply.Version = s.live.Generation()
	reply.Depth = s.live.Depth()
	s.versionG.Set(float64(reply.Version))
	return nil
}

// install makes m the served model and returns the new generation. Caller
// holds swapMu.
func (s *Service) install(m core.Predictor) int {
	s.live.Install(m)
	g := s.live.Generation()
	s.versionG.Set(float64(g))
	return g
}

// settleShadow is the service's promotion policy: once the candidate in
// shadow has been disqualified, or has scored shadowN live calls, the
// audition ends — the candidate is dropped or becomes the served model.
// Called after the live answer is secured, so it never fails a request.
func (s *Service) settleShadow() {
	if !s.live.ShadowPending() {
		return
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	cand, disqualified, ok := s.live.SettleShadow(s.shadowN)
	if !ok {
		return
	}
	if disqualified != nil {
		s.shadowRejected.Inc()
		return
	}
	s.install(cand)
	s.updates.Inc()
	s.shadowPromoted.Inc()
}

// UpdateModel pushes a model artifact to the connected service. On success
// the client refreshes its cached metadata (thresholds may have changed
// with the model). A gate rejection comes back as an error satisfying
// IsUpdateRejected with the connection intact — the server is healthy and
// still serving its previous model.
func (c *Client) UpdateModel(artifact []byte) (UpdateModelReply, error) {
	var reply UpdateModelReply
	return reply, c.admin(methodUpdateModel, &UpdateModelArgs{Artifact: artifact}, &reply)
}

// Rollback asks the connected service to restore its previous model. The
// client metadata is refreshed on success, so a rollback taken while the
// breaker is half-open re-arms the scheduler with the restored model's
// thresholds the moment the probe lands.
func (c *Client) Rollback() (RollbackReply, error) {
	var reply RollbackReply
	return reply, c.admin(methodRollback, &RollbackArgs{}, &reply)
}

// admin performs one lifecycle RPC: a single attempt under adminTimeout,
// bypassing the circuit breaker. A refusal keeps the connection; any other
// failure drops it so the next call redials.
func (c *Client) admin(method byte, args, reply any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.callOnce(method, args, reply, adminTimeout); err != nil {
		if !IsUpdateRejected(err) {
			c.dropConn()
		}
		return err
	}
	c.refreshMetaLocked()
	return nil
}

// refreshMetaLocked re-fetches model metadata after a lifecycle change.
// Best-effort: a failure keeps the previous (dims-compatible) metadata,
// and the next Predict surfaces any real transport problem. Caller holds
// c.mu.
func (c *Client) refreshMetaLocked() {
	var mr MetaReply
	if err := c.callOnce(methodMeta, &struct{}{}, &mr, c.opts.CallTimeout); err == nil {
		c.meta = mr.Meta
	}
}
