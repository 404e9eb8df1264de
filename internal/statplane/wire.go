package statplane

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
	"slices"

	"sinan/internal/cluster"
	"sinan/internal/wire"
)

// The frame kinds of a Hub connection (DESIGN.md §11, "Distributed runs:
// `Hub`"). A session opens with the agent's Hello and the hub's Assign; then
// the hub pushes a Sample per interval and the agent answers with a Report,
// which the hub files under the Hello's name, keeping its partition's tiers.
const (
	kindHello  byte = 1 + iota // agent → hub: u32 WireVersion · the agent's name
	kindAssign                 // hub → agent: u32 WireVersion · u32 per tier of the partition (none: no partition left)
	kindSample                 // hub → agent: i64 interval · a tier record per tier
	kindReport                 // agent → hub: u64 seq · the Sample's body
)

// tierRecord is a tier in a Sample or Report: u32 tier · cluster.Stats' 8 f64.
const tierRecord = 4 + 8*8

func appendTier(b []byte, tier int, s cluster.Stats) []byte {
	return wire.AppendF64(wire.AppendU32(b, tier), s.CPUUsage, s.CPULimit, s.RSS, s.Cache, s.NetRx, s.NetTx, s.QueueLen, s.Stalled)
}

func readTier(b []byte) TierStats {
	var s cluster.Stats
	for i, v := range [...]*float64{&s.CPUUsage, &s.CPULimit, &s.RSS, &s.Cache, &s.NetRx, &s.NetTx, &s.QueueLen, &s.Stalled} {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(b[4+8*i:]))
	}
	return TierStats{Tier: int(binary.LittleEndian.Uint32(b)), Stats: s}
}

// decodeReport reads a Report body into r, reusing r.Tiers, and keeps only
// the tiers of part: a session reports for its own partition.
func decodeReport(r *Report, b []byte, part []int) error {
	if len(b) < 16 || (len(b)-16)%tierRecord != 0 {
		return wire.ErrMalformed
	}
	r.Seq = binary.LittleEndian.Uint64(b)
	r.Interval = int64(binary.LittleEndian.Uint64(b[8:]))
	r.Tiers = r.Tiers[:0]
	for b = b[16:]; len(b) > 0; b = b[tierRecord:] {
		if ts := readTier(b); slices.Contains(part, ts.Tier) {
			r.Tiers = append(r.Tiers, ts)
		}
	}
	return nil
}

func appendAssign(b []byte, tiers []int) []byte {
	return wire.AppendU32(wire.AppendU32(b, WireVersion), tiers...)
}

// ErrNoPartition is a hub's answer to a Hello when every partition is held.
var ErrNoPartition = errors.New("statplane: the hub has no partition left")

// WireAgent is the agent end of a Hub connection: cmd/sinan-agent's loop.
// Its sequence number outlives a session, so a redial never reuses one and
// the hub's dedupe holds across it.
type WireAgent struct {
	Name string
	// Gate decides each report's fate before it is sent, as a ReportGate
	// does in process; nil delivers every report.
	Gate func(seq uint64, interval int64) Verdict

	seq uint64
}

// Session runs one connection: Hello, the hub's Assign, then a Report for
// every Sample, until the connection fails or a frame from the hub does not
// parse. It returns the partition assigned (nil if none) and why it ended.
func (a *WireAgent) Session(conn net.Conn) (tiers []int, err error) {
	in, out := wire.Conn{Conn: conn}, wire.Conn{Conn: conn}
	hello := binary.LittleEndian.AppendUint32(out.Begin(kindHello), WireVersion)
	if err := out.Send(append(hello, a.Name...)); err != nil {
		return nil, err
	}
	kind, b, err := in.Recv()
	switch {
	case err != nil:
		return nil, err
	case kind != kindAssign || len(b) < 4 || len(b)%4 != 0 || binary.LittleEndian.Uint32(b) != WireVersion:
		return nil, errors.New("statplane: the hub did not answer Hello with an Assign of this wire version")
	case len(b) == 4:
		return nil, ErrNoPartition
	}
	for b = b[4:]; len(b) > 0; b = b[4:] {
		tiers = append(tiers, int(binary.LittleEndian.Uint32(b)))
	}
	for {
		kind, b, err := in.Recv()
		if err != nil {
			return tiers, err
		}
		if kind != kindSample || len(b) < 8 || (len(b)-8)%tierRecord != 0 {
			return tiers, wire.ErrMalformed
		}
		a.seq++
		v := Deliver
		if a.Gate != nil {
			v = a.Gate(a.seq, int64(binary.LittleEndian.Uint64(b)))
		}
		if v == Drop {
			continue
		}
		report := append(binary.LittleEndian.AppendUint64(out.Begin(kindReport), a.seq), b...)
		err = out.Send(report)
		if err == nil && v == Duplicate {
			err = out.Send(report) // a retransmit racing its original: the same seq twice
		}
		if err != nil {
			return tiers, err
		}
	}
}
