package statplane

import (
	"errors"
	"fmt"
	"net"

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

// A tier in a Sample or Report is u32 tier · cluster.Stats' 8 f64.
func appendTier(b []byte, tier int, s cluster.Stats) []byte {
	return wire.AppendF64(wire.AppendU32(b, tier), s.CPUUsage, s.CPULimit, s.RSS, s.Cache, s.NetRx, s.NetTx, s.QueueLen, s.Stalled)
}

func readTier(r *wire.Reader) TierStats {
	return TierStats{Tier: int(r.U32()), Stats: cluster.Stats{CPUUsage: r.F64(), CPULimit: r.F64(), RSS: r.F64(),
		Cache: r.F64(), NetRx: r.F64(), NetTx: r.F64(), QueueLen: r.F64(), Stalled: r.F64()}}
}

// decodeReport reads a Report body into rep, reusing rep.Tiers.
func decodeReport(rep *Report, b []byte) error {
	r := wire.NewReader(b)
	rep.Seq, rep.Interval, rep.Tiers = r.U64(), int64(r.U64()), rep.Tiers[:0]
	for r.Len() > 0 {
		rep.Tiers = append(rep.Tiers, readTier(r))
	}
	return r.End()
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
	if err := out.Send(append(wire.AppendU32(out.Begin(kindHello), WireVersion), a.Name...)); err != nil {
		return nil, err
	}
	kind, b, err := in.Recv()
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(b)
	if kind != kindAssign || r.U32() != WireVersion {
		return nil, errors.New("statplane: the hub did not answer Hello with an Assign of this wire version")
	}
	for r.Len() > 0 {
		tiers = append(tiers, int(r.U32()))
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("statplane: Assign: %w", err)
	}
	if tiers == nil {
		return nil, ErrNoPartition
	}
	for {
		kind, b, err := in.Recv()
		if err != nil {
			return tiers, err
		}
		if kind != kindSample {
			return tiers, fmt.Errorf("statplane: frame kind %d where a Sample belongs", kind)
		}
		r := wire.NewReader(b)
		interval := int64(r.U64())
		for r.Len() > 0 {
			readTier(r) // relayed as they are, but only whole
		}
		if err := r.End(); err != nil {
			return tiers, fmt.Errorf("statplane: Sample: %w", err)
		}
		a.seq++
		v := Deliver
		if a.Gate != nil {
			v = a.Gate(a.seq, interval)
		}
		if v == Drop {
			continue
		}
		report := append(wire.AppendU64(out.Begin(kindReport), a.seq), b...)
		err = out.Send(report)
		if err == nil && v == Duplicate {
			err = out.Send(report) // a retransmit racing its original: the same seq twice
		}
		if err != nil {
			return tiers, err
		}
	}
}
