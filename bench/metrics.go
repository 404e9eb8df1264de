package main

import "slices"

// metricDef describes one metric. This table is the single source of the
// names, units, directions and bounds; BENCHMARK.json repeats the ones the
// driver enforces (Contract) and a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is how far the metric may worsen before a change counts as a
	// regression: a share of the baseline's median, or an absolute amount
	// when Abs is set.
	Bound float64
	Abs   bool
	// Exact marks a simulated output: the same seeds give the same value
	// on every machine, so its spread across runs is the variety of the
	// seeds, not measurement noise, and any difference between two results
	// is real.
	Exact bool
	// Workloads lists where the metric applies; nil means all four.
	Workloads []string
	// Contract marks the metrics defined on every workload. Only those can
	// be in BENCHMARK.json, whose contract is that each workload reports
	// every end-to-end metric.
	Contract bool
}

func (m metricDef) appliesTo(w string) bool {
	return m.Workloads == nil || slices.Contains(m.Workloads, w)
}

var (
	managed = []string{wInproc, wHotel, wRPC}
	sinan   = []string{wInproc, wRPC}
)

// endToEnd lists what a user of the system would see. setup_s and
// peak_rss_mb belong to the invocation rather than to a workload; a
// single-workload invocation reports them with that workload.
//
// Every metric derived from the clock or from resident memory carries the
// widest bound the contract allows. The 2-vCPU reference box is a shared VM:
// at its calmest, identical work spreads by 4-8% between invocations minutes
// apart, and in contended episodes by far more (README.md has the
// measurements), so a 10% bound would reject a commit against itself. The
// simulated and counted metrics repeat exactly and keep tight bounds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "host_ms_per_simsec", Unit: "ms", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "cpu_ms_per_simsec", Unit: "ms", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "allocs_per_simsec", Unit: "count", Better: "lower", Bound: 0.02, Contract: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Contract: true},
	{Name: "decide_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: sinan},
	{Name: "qos_meet_frac", Unit: "fraction", Better: "higher", Bound: 0.002, Abs: true, Exact: true, Workloads: managed},
	{Name: "mean_alloc_cores", Unit: "cores", Better: "lower", Bound: 0.005, Exact: true, Workloads: managed},
	{Name: "train_s", Unit: "s", Better: "lower", Bound: 0.25, Workloads: []string{wTrain}},
	{Name: "val_rmse_ms", Unit: "ms", Better: "lower", Bound: 0.001, Exact: true, Workloads: []string{wTrain}},
}

// perLayer lists the single-layer metrics of the traced pass and the direct
// probes, grouped by the module they time. They carry no bound. Every
// traced invocation measures all of them on fixed home workloads (README.md
// says which), whatever -workload names.
var perLayer = []metricDef{
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "cluster.us_per_request", Unit: "us", Better: "lower"},
	{Name: "cluster.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "cluster.requests_per_s", Unit: "1/s", Better: "higher"},
	{Name: "runner.self_ms_per_simsec", Unit: "ms", Better: "lower"},
	{Name: "runner.requests_per_simsec", Unit: "count", Better: "higher"},
	{Name: "statplane.collect_us_p50", Unit: "us", Better: "lower"},
	{Name: "statplane.collect_us_p99", Unit: "us", Better: "lower"},
	{Name: "statplane.share", Unit: "fraction", Better: "lower"},
	{Name: "core.decide_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.decide_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "core.decide_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.share", Unit: "fraction", Better: "lower"},
	{Name: "core.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "core.model_query_frac", Unit: "fraction", Better: "lower"},
	{Name: "core.degraded_frac", Unit: "fraction", Better: "lower"},
	{Name: "core.predict_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.predict_us_per_candidate", Unit: "us", Better: "lower"},
	{Name: "nn.predict_shared_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "boost.predict_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "predsvc.call_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "predsvc.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "predsvc.payload_floats", Unit: "count", Better: "lower"},
	{Name: "predsvc.sheds", Unit: "count", Better: "lower"},
	{Name: "predsvc.retries", Unit: "count", Better: "lower"},
	{Name: "predsvc.errors", Unit: "count", Better: "lower"},
	{Name: "nn.train_epoch_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.train_samples_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tensor.matmul_gflops", Unit: "gflop/s", Better: "higher"},
	{Name: "boost.train_ms", Unit: "ms", Better: "lower"},
	{Name: "core.train_other_ms", Unit: "ms", Better: "lower"},
	{Name: "collect.run_s", Unit: "s", Better: "lower"},
	{Name: "collect.simsec_per_s", Unit: "1/s", Better: "higher"},
	{Name: "collect.samples", Unit: "count", Better: "higher"},
	{Name: "lifecycle.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "lifecycle.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "lifecycle.artifact_kb", Unit: "KB", Better: "lower"},
	{Name: "harness.par_efficiency", Unit: "fraction", Better: "higher"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
}

// workloadMetrics reduces a workload's untraced runs to its end-to-end
// metrics: the per-run value of each, summarised across runs.
func workloadMetrics(w string, recs []runRecord) map[string]summary {
	per := map[string][]float64{}
	for _, r := range recs {
		per["host_ms_per_simsec"] = append(per["host_ms_per_simsec"], ms(r.Wall)/r.SimSec)
		per["cpu_ms_per_simsec"] = append(per["cpu_ms_per_simsec"], ms(r.CPU)/r.SimSec)
		per["allocs_per_simsec"] = append(per["allocs_per_simsec"], float64(r.Mallocs)/r.SimSec)
		if len(r.Decides) > 0 {
			var d []float64
			for _, s := range r.Decides {
				d = append(d, ms(s.Decide))
			}
			per["decide_ms_p50"] = append(per["decide_ms_p50"], nearestRank(d, 0.5))
		}
		per["qos_meet_frac"] = append(per["qos_meet_frac"], r.MeetFrac)
		per["mean_alloc_cores"] = append(per["mean_alloc_cores"], r.MeanAlloc)
		per["train_s"] = append(per["train_s"], r.Wall.Seconds())
		per["val_rmse_ms"] = append(per["val_rmse_ms"], r.ValRMSE)
	}
	out := map[string]summary{}
	for _, m := range endToEnd {
		if vals := per[m.Name]; m.appliesTo(w) && len(vals) > 0 {
			out[m.Name] = summarize(vals)
		}
	}
	return out
}
