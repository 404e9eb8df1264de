// The wire of the prediction service (DESIGN.md §9, "Wire"): a frame of
// package wire per message, its kind the method of a request or the status of
// a reply, one request at a time per connection. A handler's error is a whole
// reply frame and keeps the connection; after any other error the stream
// position is unknown and the side that saw it closes the connection.
package predsvc

import (
	"cmp"
	"fmt"
	"net"
	"time"

	"sinan/internal/core"
	"sinan/internal/nn"
	"sinan/internal/wire"
)

// The kind byte: of a request frame, then of a reply frame. A request of any
// other kind is answered as an unknown method. Kind 1 carried a predict
// query with one history window per candidate before kind 2 took both forms.
const (
	methodPredict byte = 2
	methodMeta    byte = 3
	statusOK      byte = 0
	statusErr     byte = 1 // the body is the handler error's message
)

// remoteError is an error the peer's handler returned, carried by its
// message (classification stays by text: IsOverloaded and friends). Its
// frame was whole, so unlike every other error it keeps the connection.
type remoteError string

func (e remoteError) Error() string { return string(e) }

// handler is what a connection dispatches to: *Service, or a test's fake.
// predict answers a query with the connection's scratch.
type handler interface {
	predict(sc *serveScratch, args *PredictArgs, reply *PredictReply) error
	Meta(*struct{}, *MetaReply) error
}

// body is a request or reply. decode is a run of wire.Reader reads and the
// Reader's one end check.
type body interface {
	appendTo(b []byte) []byte
	decode(b []byte) error
}

// noArgs is Meta's request: an empty body.
type noArgs struct{}

func (noArgs) appendTo(b []byte) []byte { return b }
func (noArgs) decode(b []byte) error    { return wire.NewReader(b).End() }

func (a *PredictArgs) appendTo(b []byte) []byte {
	return wire.AppendFloats(wire.AppendF64(wire.AppendU32(b, a.Batch), a.DeadlineMS), a.RH, a.LH, a.RC)
}

// decode reuses a's slices: a connection's loop keeps one PredictArgs.
func (a *PredictArgs) decode(b []byte) error {
	w := wire.NewReader(b)
	a.Batch, a.DeadlineMS = int(w.U32()), w.F64()
	w.FloatRuns(&a.RH, &a.LH, &a.RC)
	return w.End()
}

func (r *PredictReply) appendTo(b []byte) []byte {
	return wire.AppendFloats(wire.AppendU32(b, r.M), r.Lat, r.PViol)
}

// decode reuses r's slices, which the client points at the caller's
// core.PredictContext: the answer is the caller's, valid until that
// context's next use, and a warmed context decodes without allocating.
func (r *PredictReply) decode(b []byte) error {
	w := wire.NewReader(b)
	r.M = int(w.U32())
	w.FloatRuns(&r.Lat, &r.PViol)
	return w.End()
}

func (r *MetaReply) appendTo(b []byte) []byte {
	m := r.Meta
	return wire.AppendF64(wire.AppendU32(b, m.D.N, m.D.T, m.D.F, m.D.M), m.QoSMS, m.RMSEValid, m.Pd, m.Pu)
}

// decode refuses dims nn.Dims.Check refuses: a scheduler sizes its history
// rings by them.
func (r *MetaReply) decode(b []byte) error {
	w := wire.NewReader(b)
	d := nn.Dims{N: int(w.U32()), T: int(w.U32()), F: int(w.U32()), M: int(w.U32())}
	r.Meta = core.ModelMeta{D: d, QoSMS: w.F64(), RMSEValid: w.F64(), Pd: w.F64(), Pu: w.F64()}
	return cmp.Or(w.End(), d.Check())
}

// roundTrip sends one request and reads its reply under one deadline. A nil
// or remoteError result leaves the connection in sync; any other does not.
func roundTrip(w *wire.Conn, method byte, args, reply body, timeout time.Duration) error {
	_ = w.SetDeadline(time.Now().Add(timeout)) // fails only on a closed connection, and then so does the Write
	if err := w.Send(args.appendTo(w.Begin(method))); err != nil {
		return err
	}
	status, b, err := w.Recv()
	switch {
	case err != nil:
		return err
	case status == statusErr:
		return remoteError(b)
	case status != statusOK:
		return fmt.Errorf("predsvc: unknown reply status %d", status)
	}
	return reply.decode(b)
}

// serveConn answers one connection's requests, one at a time, until the peer
// hangs up (or Server.Close stops the read side) or a frame cannot be
// delimited. A whole frame always gets a reply frame: an unknown method or a
// malformed body is answered like any handler error. args, reply and the
// serving scratch belong to the connection and are reused across its
// requests (Service.predict appends into reply.Lat[:0]): no allocation.
func serveConn(conn net.Conn, h handler) {
	w := &wire.Conn{Conn: conn}
	var args PredictArgs
	var reply PredictReply
	sc := newServeScratch()
	for {
		method, b, err := w.Recv()
		if err != nil {
			return
		}
		var out body
		switch method {
		case methodPredict:
			if err = args.decode(b); err == nil {
				err = h.predict(sc, &args, &reply)
			}
			out = &reply
		case methodMeta:
			meta := new(MetaReply)
			if err = (noArgs{}).decode(b); err == nil {
				err = h.Meta(nil, meta)
			}
			out = meta
		default:
			err = fmt.Errorf("predsvc: unknown method %d", method)
		}
		if err == nil {
			err = w.Send(out.appendTo(w.Begin(statusOK)))
		}
		// After a failed Write this second one fails too, and ends the loop.
		if err != nil && w.Send(append(w.Begin(statusErr), err.Error()...)) != nil {
			return
		}
	}
}
