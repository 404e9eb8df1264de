// The wire of the prediction service (DESIGN.md §9, "Wire"): one frame per
// message, u32 n · u8 kind · n bytes of body (integers little-endian), kind
// being the method on a request and the status on a reply. A connection
// carries one request at a time, written and read on the calling goroutine
// at both ends. A handler's error travels as a whole reply frame and the
// connection stays usable; after any other error the stream position is
// unknown and the side that saw it closes the connection. Both ends ship
// from this repository: no version byte, no second dialect.
package predsvc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"time"
)

const (
	frameHeader        = 5  // u32 body length, u8 kind
	predictArgsHeader  = 12 // u32 Batch · f64 DeadlineMS, then the counts and floats of RH, LH, RC
	predictReplyHeader = 4  // u32 M, then the counts and floats of Lat, PViol

	// maxFrame caps the body length a peer may announce, checked before any
	// buffer grows. The largest legitimate frames are a full-batch Predict
	// of a 256-row gate batch at Social Network size (256 × 893 floats ≈
	// 1.8 MB) and a model artifact (≈ 0.3 MB).
	maxFrame = 8 << 20
)

// The kind byte: of a request frame, then of a reply frame.
const (
	methodPredict byte = 1 + iota
	methodPredictShared
	methodMeta
	methodStats
	methodUpdateModel
	methodRollback
	statusOK  byte = 0
	statusErr byte = 1 // the body is the handler error's message
)

// remoteError is an error the peer's handler returned, carried by its
// message (classification stays by text: IsOverloaded and friends). Its
// frame was whole, so unlike every other error it keeps the connection.
type remoteError string

func (e remoteError) Error() string { return string(e) }

var errMalformed = errors.New("predsvc: malformed frame body")

// handler is what a connection dispatches to: *Service, or a test's fake.
type handler interface {
	Predict(*PredictArgs, *PredictReply) error
	PredictShared(*PredictArgs, *PredictReply) error
	Meta(*struct{}, *MetaReply) error
	Stats(*struct{}, *StatsReply) error
	UpdateModel(*UpdateModelArgs, *UpdateModelReply) error
	Rollback(*RollbackArgs, *RollbackReply) error
}

// wireConn is one end of a connection and the byte buffer it owns: frames
// are built in buf and read into it, so a warmed connection allocates no
// bytes. A body recv returns aliases buf and dies with the next send or recv.
type wireConn struct {
	conn net.Conn
	buf  []byte
}

// rawBody is a message that crosses the wire as a fixed header and the raw
// bits of its floats: the two on the hot path.
type rawBody interface {
	appendTo(b []byte) []byte
	decode(b []byte) error
}

// send writes one frame, in one Write. The body is v's own encoding if it is
// a rawBody, the message if it is a remoteError, and otherwise gob, a fresh
// encoder per message: the rare-path structs are where reflection pays.
func (w *wireConn) send(kind byte, v any) error {
	w.buf = append(w.buf[:0], 0, 0, 0, 0, kind)
	switch v := v.(type) {
	case rawBody:
		w.buf = v.appendTo(w.buf)
	case remoteError:
		w.buf = append(w.buf, v...)
	default:
		buf := bytes.NewBuffer(w.buf)
		if err := gob.NewEncoder(buf).Encode(v); err != nil {
			return err
		}
		w.buf = buf.Bytes()
	}
	n := len(w.buf) - frameHeader
	if n > maxFrame {
		return fmt.Errorf("predsvc: frame body of %d bytes exceeds the %d-byte cap", n, maxFrame)
	}
	binary.LittleEndian.PutUint32(w.buf, uint32(n))
	_, err := w.conn.Write(w.buf)
	return err
}

func (w *wireConn) recv() (kind byte, body []byte, err error) {
	hdr := slices.Grow(w.buf[:0], frameHeader)[:frameHeader]
	if _, err := io.ReadFull(w.conn, hdr); err != nil {
		return 0, nil, err
	}
	n, kind := binary.LittleEndian.Uint32(hdr), hdr[4]
	if n > maxFrame {
		return 0, nil, fmt.Errorf("predsvc: peer announced a frame body of %d bytes, cap %d", n, maxFrame)
	}
	w.buf = slices.Grow(hdr[:0], int(n))
	body = w.buf[:n]
	_, err = io.ReadFull(w.conn, body)
	return kind, body, err
}

func decodeBody(b []byte, v any) error {
	if r, ok := v.(rawBody); ok {
		return r.decode(b)
	}
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// appendFloats appends every slice's length as a u32, then every float's bits.
func appendFloats(b []byte, xs ...[]float64) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(x)))
	}
	for _, x := range xs {
		for _, v := range x {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

// readFloats decodes what appendFloats wrote after b's first header bytes
// into the storage dst already has. The lengths must account for exactly the
// bytes present: checked in 64 bits, before anything is sliced or sized.
func readFloats(b []byte, header int, dst ...*[]float64) error {
	if len(b) < header+4*len(dst) {
		return errMalformed
	}
	counts, b := b[header:header+4*len(dst)], b[header+4*len(dst):]
	var sum uint64
	for i := range dst {
		sum += uint64(binary.LittleEndian.Uint32(counts[4*i:]))
	}
	if 8*sum != uint64(len(b)) {
		return errMalformed
	}
	for i, d := range dst {
		n := int(binary.LittleEndian.Uint32(counts[4*i:]))
		x := slices.Grow((*d)[:0], n)[:n]
		for j := range x { // advancing b costs half of what indexing b[8*j:] does
			x[j] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
		*d = x
	}
	return nil
}

func (a *PredictArgs) appendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(a.Batch))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.DeadlineMS))
	return appendFloats(b, a.RH, a.LH, a.RC)
}

// decode reuses a's slices: a connection's loop keeps one PredictArgs.
func (a *PredictArgs) decode(b []byte) error {
	if err := readFloats(b, predictArgsHeader, &a.RH, &a.LH, &a.RC); err != nil {
		return err
	}
	a.Batch = int(binary.LittleEndian.Uint32(b))
	a.DeadlineMS = math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
	return nil
}

func (r *PredictReply) appendTo(b []byte) []byte {
	return appendFloats(binary.LittleEndian.AppendUint32(b, uint32(r.M)), r.Lat, r.PViol)
}

// decode reuses r's slices, which the client points at the caller's
// core.PredictContext: the answer is the caller's, valid until that
// context's next use, and a warmed context decodes without allocating.
func (r *PredictReply) decode(b []byte) error {
	if err := readFloats(b, predictReplyHeader, &r.Lat, &r.PViol); err != nil {
		return err
	}
	r.M = int(binary.LittleEndian.Uint32(b))
	return nil
}

// roundTrip sends one request and reads its reply under one deadline. A nil
// or remoteError result leaves the connection in sync; any other does not.
func (w *wireConn) roundTrip(method byte, args, reply any, timeout time.Duration) error {
	_ = w.conn.SetDeadline(time.Now().Add(timeout)) // fails only on a closed connection, and then so does the Write
	if err := w.send(method, args); err != nil {
		return err
	}
	status, body, err := w.recv()
	switch {
	case err != nil:
		return err
	case status == statusErr:
		return remoteError(body)
	case status != statusOK:
		return fmt.Errorf("predsvc: unknown reply status %d", status)
	}
	return decodeBody(body, reply)
}

// answer serves one request: body into args, the handler, reply sent.
func answer[A, R any](w *wireConn, body []byte, args *A, reply *R, call func(*A, *R) error) error {
	err := decodeBody(body, args)
	if err == nil {
		err = call(args, reply)
	}
	if err == nil {
		err = w.send(statusOK, reply)
	}
	return err
}

// serveConn answers one connection's requests, one at a time, until the peer
// hangs up (or Server.Close stops the read side) or a frame cannot be
// delimited. A whole frame always gets a reply frame: an unknown method or a
// malformed body is answered like any handler error. args and reply are reused
// across requests (Service.serve appends into reply.Lat[:0]): no allocation.
func serveConn(conn net.Conn, h handler) {
	w := &wireConn{conn: conn}
	var args PredictArgs
	var reply PredictReply
	for {
		method, body, err := w.recv()
		if err != nil {
			return
		}
		switch method {
		case methodPredict:
			err = answer(w, body, &args, &reply, h.Predict)
		case methodPredictShared:
			err = answer(w, body, &args, &reply, h.PredictShared)
		case methodMeta:
			err = answer(w, body, new(struct{}), new(MetaReply), h.Meta)
		case methodStats:
			err = answer(w, body, new(struct{}), new(StatsReply), h.Stats)
		case methodUpdateModel:
			err = answer(w, body, new(UpdateModelArgs), new(UpdateModelReply), h.UpdateModel)
		case methodRollback:
			err = answer(w, body, new(RollbackArgs), new(RollbackReply), h.Rollback)
		default:
			err = fmt.Errorf("predsvc: unknown method %d", method)
		}
		// After a failed Write this second one fails too, and ends the loop.
		if err != nil && w.send(statusErr, remoteError(err.Error())) != nil {
			return
		}
	}
}
