package statplane

import (
	"slices"
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
	return Report{Agent: "node-0", Seq: 1, Interval: 7, Tiers: ts}
}

// BenchmarkReportEncode measures building one report frame in a reused
// buffer — what a session's write side pays per interval.
func BenchmarkReportEncode(b *testing.B) {
	rep := benchReport(4)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep.Seq++
		buf = appendReport(append(buf[:0], 0, 0, 0, 0, kindReport), rep)
	}
}

// BenchmarkReportDecode measures the hub's per-report work in its read loop:
// the decode into the Report it reuses, then the filter that keeps the
// session's own partition (the same DeleteFunc as Hub.handle).
func BenchmarkReportDecode(b *testing.B) {
	rep := benchReport(4)
	body := appendReport(nil, rep)
	part := []int{0, 1, 2, 3}
	var out Report
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := decodeReport(&out, body); err != nil {
			b.Fatal(err)
		}
		out.Tiers = slices.DeleteFunc(out.Tiers, func(ts TierStats) bool { return !slices.Contains(part, ts.Tier) })
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
	gw := GatewayReport{Gateway: "gw", RPS: 1000}
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
