// Package wire is the one frame both network paths speak, predsvc's calls
// and the stats plane's agent sessions (DESIGN.md §9, "Wire"): u32 n · u8
// kind · n bytes of body, integers little-endian. What a kind's body holds
// is the owning package's business.
package wire

import (
	"encoding/binary"
	"errors"
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
	// buffer grows. The largest legitimate frame is a full-batch Predict of
	// 256 candidates at Social Network size (256 × 893 floats ≈ 1.8 MB).
	MaxFrame = 8 << 20
)

// ErrMalformed is a whole frame whose body does not parse.
var ErrMalformed = errors.New("wire: malformed frame body")

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

// AppendFloats appends every slice's length as a u32, then every float's bits.
func AppendFloats(b []byte, xs ...[]float64) []byte {
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

// ReadFloats decodes what AppendFloats wrote after b's first header bytes
// into the storage dst already has. The lengths must account for exactly the
// bytes present: checked in 64 bits, before anything is sliced or sized.
func ReadFloats(b []byte, header int, dst ...*[]float64) error {
	if len(b) < header+4*len(dst) {
		return ErrMalformed
	}
	counts, b := b[header:header+4*len(dst)], b[header+4*len(dst):]
	var sum uint64
	for i := range dst {
		sum += uint64(binary.LittleEndian.Uint32(counts[4*i:]))
	}
	if 8*sum != uint64(len(b)) {
		return ErrMalformed
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
