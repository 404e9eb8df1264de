// Package wire is the one frame both network paths speak, predsvc's calls
// and the stats plane's agent sessions (DESIGN.md §9, "Wire"): u32 n · u8
// kind · n bytes of body, integers little-endian. What a kind's body holds
// is the owning package's business. The same integers and float bits are
// the on-disk codecs of models and datasets. Every frame body and every file
// is read back by Reader, and this package is the only one that imports
// encoding/binary.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"time"
)

const (
	Header = 5 // u32 body length, u8 kind

	// MaxFrame caps the body length a peer may announce, checked before any
	// buffer grows. The largest legitimate frame is a Predict of 256
	// candidates with one history window each at Social Network size
	// (256 × 893 floats ≈ 1.8 MB).
	MaxFrame = 8 << 20
)

// Conn is a connection and the byte buffer its frames are built in and read
// into, so a warmed Conn allocates nothing. A body Recv returns aliases the
// buffer until the next Begin or Recv. A connection read and written on two
// goroutines gets a Conn per direction.
type Conn struct {
	net.Conn
	buf []byte
}

// Begin starts a frame in the buffer; append the body and hand it to Send.
func (c *Conn) Begin(kind byte) []byte { return append(c.buf[:0], 0, 0, 0, 0, kind) }

// Send writes the frame Begin started in one Write, keeping its storage.
func (c *Conn) Send(frame []byte) error {
	c.buf = frame
	n := len(frame) - Header
	if n > MaxFrame {
		return fmt.Errorf("wire: frame body of %d bytes exceeds the %d-byte cap", n, MaxFrame)
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	_, err := c.Write(frame)
	return err
}

// Recv reads one frame.
func (c *Conn) Recv() (kind byte, body []byte, err error) {
	hdr := slices.Grow(c.buf[:0], Header)[:Header]
	if _, err := io.ReadFull(c.Conn, hdr); err != nil {
		return 0, nil, err
	}
	n, kind := binary.LittleEndian.Uint32(hdr), hdr[4]
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: peer announced a frame body of %d bytes, cap %d", n, MaxFrame)
	}
	c.buf = slices.Grow(hdr[:0], int(n))
	body = c.buf[:n]
	_, err = io.ReadFull(c.Conn, body)
	return kind, body, err
}

// AppendFloats appends every slice's length as a u32, then every float's bits
// (Reader.FloatRuns).
func AppendFloats(b []byte, xs ...[]float64) []byte {
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(x)))
	}
	for _, x := range xs {
		b = AppendF64(b, x...)
	}
	return b
}

// AppendF64 appends each value's bits and no count: the reader knows how
// many to read (Reader.Floats).
func AppendF64(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// AppendU32 appends each value as a u32.
func AppendU32(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// AppendU64 appends each value as a u64.
func AppendU64(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// AppendString appends s's length as a u32, then its bytes.
func AppendString(b []byte, s string) []byte { return append(AppendU32(b, len(s)), s...) }

// Reader reads, front to back, what the Append helpers wrote: every frame
// body and every file. Every read checks the bytes left, so a count is
// checked before the caller sizes anything from it. The first error sticks:
// later reads return zeros, and Err and End report it.
type Reader struct {
	b   []byte
	err error
}

func NewReader(b []byte) *Reader { return &Reader{b: b} }
func (r *Reader) Err() error     { return r.err }
func (r *Reader) Len() int       { return len(r.b) } // bytes not yet read

// Fail records err unless an error is recorded already, and drops the bytes
// left: Len is 0 from the first error on, so a read-until-empty loop ends.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// End is a decoder's last call: the first error, or one if bytes are left.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) > 0 {
		return fmt.Errorf("wire: %d bytes after the end", len(r.b))
	}
	return r.err
}

// Bytes returns the next n bytes, aliasing the input, or nil after an error.
func (r *Reader) Bytes(n int) []byte {
	if n > len(r.b) {
		r.Fail(fmt.Errorf("wire: input ends %d bytes short", n-len(r.b)))
	}
	if r.err != nil {
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

func (r *Reader) U32() uint32  { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64  { return binary.LittleEndian.Uint64(r.fixed(8)) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// fixed is Bytes for a field of n ≤ 8 bytes, zeros after an error.
func (r *Reader) fixed(n int) []byte {
	if b := r.Bytes(n); b != nil {
		return b
	}
	return make([]byte, 8)
}

// Floats fills dst from the next 8·len(dst) bytes.
func (r *Reader) Floats(dst []float64) {
	if b := r.Bytes(8 * len(dst)); b != nil {
		for i := range dst { // advancing b costs half of what indexing b[8*i:] does
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
}

// FloatRuns reads what AppendFloats wrote into the storage dst already has.
// The counts, summed in 64 bits, must fit in the bytes left before any
// slice is sized from them.
func (r *Reader) FloatRuns(dst ...*[]float64) {
	counts := r.Bytes(4 * len(dst))
	if counts == nil {
		return
	}
	var sum uint64
	for c := counts; len(c) > 0; c = c[4:] {
		sum += uint64(binary.LittleEndian.Uint32(c))
	}
	if 8*sum > uint64(len(r.b)) {
		r.Fail(fmt.Errorf("wire: %d floats announced, %d bytes left", sum, len(r.b)))
		return
	}
	for _, d := range dst {
		n := int(binary.LittleEndian.Uint32(counts))
		counts = counts[4:]
		*d = slices.Grow((*d)[:0], n)[:n]
		r.Floats(*d)
	}
}

// Count reads a u32 count of items of at least size bytes each and fails
// unless that many can still follow. It returns 0 after an error.
func (r *Reader) Count(size int) int {
	n := r.U32()
	if uint64(n) > uint64(r.Len()/size) { // not int(n): negative where int has 32 bits
		r.Fail(fmt.Errorf("wire: %d items of %d bytes announced, %d bytes left", n, size, r.Len()))
		return 0
	}
	return int(n)
}

// String reads what AppendString wrote.
func (r *Reader) String() string { return string(r.Bytes(r.Count(1))) }

// Backoff is a capped doubling delay, not jittered: every program runs one
// client per service and one agent per -id, so no replicas' retries could
// synchronise. ClientRetry paces predsvc.Client's retries within a call,
// AgentRedial sinan-agent's redials while the hub is unreachable.
type Backoff struct{ Base, Max time.Duration }

var ClientRetry, AgentRedial = Backoff{50 * time.Millisecond, 500 * time.Millisecond}, Backoff{time.Second, 16 * time.Second}

// Delay returns the wait before retry n, from 0: Base doubled n times, capped.
func (b Backoff) Delay(n int) time.Duration {
	d := b.Base
	for ; n > 0 && d < b.Max; n-- {
		d *= 2
	}
	return min(d, b.Max)
}
