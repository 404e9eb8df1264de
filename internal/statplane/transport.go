package statplane

// Verdict is a ReportGate's decision about one report delivery.
type Verdict int

const (
	// Deliver passes the report through unharmed.
	Deliver Verdict = iota
	// Drop loses the report: the aggregator never sees it and the
	// interval's affected tiers go StatsOK=false.
	Drop
	// Duplicate delivers the report twice with the same sequence number,
	// modelling a retransmit racing its original; the aggregator must
	// accept one copy and discard the other.
	Duplicate
)

// ReportGate decides the fate of each node-agent report in flight — the
// hook through which fault injection acts on actual report delivery
// instead of reaching around the plane to falsify rows. Implemented by
// faults.Injector; the gate must be deterministic given the run's seed
// (sim-clock windows plus a seeded RNG) so gated runs stay bit-identical
// across harness worker counts.
type ReportGate interface {
	DeliverReport(Report) Verdict
}

// InProcess carries reports from an emitter (node agent, gateway reporter)
// to the aggregator: delivery is a synchronous method call, optionally
// filtered through a ReportGate. No goroutines, no wall clock, no
// buffering — the harness's bit-identical serial-vs-parallel guarantee
// holds because nothing here can reorder. The plane is best-effort by
// design: a report the gate drops surfaces downstream as a StatsOK=false
// entry, never as a control-loop failure. The aggregator copies what it
// keeps, so the emitter may reuse the report's backing storage after the
// call returns.
type InProcess struct {
	Sink *Aggregator
	Gate ReportGate // optional; nil delivers everything
}

// SendReport delivers one node-agent report through the gate.
func (t *InProcess) SendReport(r Report) {
	v := Deliver
	if t.Gate != nil {
		v = t.Gate.DeliverReport(r)
	}
	switch v {
	case Drop:
	case Duplicate:
		t.Sink.OfferReport(r)
		t.Sink.OfferReport(r)
	default:
		t.Sink.OfferReport(r)
	}
}

// SendGatewayReport delivers the gateway's report. Gateway reports are not
// gated: the gateway is co-located with the scheduler in every deployment
// this repository models, so its loss modes are not interesting to inject.
func (t *InProcess) SendGatewayReport(g GatewayReport) {
	t.Sink.OfferGatewayReport(g)
}
