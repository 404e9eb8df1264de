package statplane

import (
	"bytes"
	"encoding/gob"
	"testing"

	"sinan/internal/cluster"
)

// The stats-plane benchmarks measure the three per-interval hot paths:
// encoding a report onto the wire, decoding it off, and assembling one
// interval's snapshot.

func benchReport(tiers int) Report {
	ts := make([]TierStats, tiers)
	for i := range ts {
		ts[i] = TierStats{Tier: i, Stats: cluster.Stats{
			CPUUsage: 3.2, CPULimit: 8, RSS: 512, Cache: 128,
			NetRx: 9000, NetTx: 8000, QueueLen: 4, Stalled: 0.1,
		}}
	}
	return Report{Version: WireVersion, Agent: "node-0", Seq: 1, Interval: 7, Time: 7, Tiers: ts}
}

// BenchmarkReportEncode measures one gob encode on an established stream —
// what a node agent pays per interval after the type is negotiated.
func BenchmarkReportEncode(b *testing.B) {
	rep := benchReport(4)
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	env := &Envelope{Report: &rep}
	enc.Encode(env) // prime the stream's type dictionary
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Truncate(buf.Len()) // keep bytes; gob streams are append-only
		rep.Seq++
		if err := enc.Encode(env); err != nil {
			b.Fatal(err)
		}
		if buf.Len() > 1<<20 {
			buf.Reset()
			enc = gob.NewEncoder(&buf)
			enc.Encode(env)
		}
	}
}

// BenchmarkReportDecode measures the collector's per-message decode cost on
// an established stream.
func BenchmarkReportDecode(b *testing.B) {
	rep := benchReport(4)
	env := &Envelope{Report: &rep}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	// A long pre-encoded stream the decoder walks through; rebuilt when
	// exhausted.
	build := func() *gob.Decoder {
		buf.Reset()
		enc = gob.NewEncoder(&buf)
		for i := 0; i < 4096; i++ {
			rep.Seq++
			enc.Encode(env)
		}
		return gob.NewDecoder(bytes.NewReader(buf.Bytes()))
	}
	dec := build()
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out Envelope
		if err := dec.Decode(&out); err != nil {
			b.Fatal(err)
		}
		if n++; n == 4096 {
			b.StopTimer()
			dec = build()
			n = 0
			b.StartTimer()
		}
	}
}

// BenchmarkIntervalAssemble measures one full aggregator cycle — open the
// interval, offer every agent's report plus the gateway's, assemble — for a
// 6-tier cluster with one agent per tier, the in-process default.
func BenchmarkIntervalAssemble(b *testing.B) {
	const tiers = 6
	a := NewAggregator(AggregatorOptions{NumTiers: tiers})
	for i := 0; i < tiers; i++ {
		a.RegisterAgent(AgentName(i))
	}
	a.ExpectGateway()
	reports := make([]Report, tiers)
	for i := range reports {
		reports[i] = benchReport(1)
		reports[i].Agent = AgentName(i)
		reports[i].Tiers[0].Tier = i
	}
	gw := GatewayReport{Version: WireVersion, Gateway: "gw", RPS: 1000}
	cycle := func(interval int64) {
		a.BeginInterval(interval)
		for i := range reports {
			reports[i].Seq++
			reports[i].Interval = interval
			a.OfferReport(reports[i])
		}
		gw.Seq++
		gw.Interval = interval
		a.OfferGatewayReport(gw)
		a.Assemble(interval, float64(interval))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(int64(i))
	}
}
