package harness

import (
	"bytes"
	"strings"
	"testing"

	"sinan/internal/telemetry"
)

// snapshotJSON renders a registry snapshot to its canonical JSON form.
// Snapshot keys are sorted, so equal snapshots produce identical bytes.
func snapshotJSON(t *testing.T, r *telemetry.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("snapshot JSON: %v", err)
	}
	return buf.String()
}

// TestTelemetryDeterministicAcrossWorkers is the telemetry half of the
// harness determinism contract: the same suite executed with 1 worker and
// with 8 workers must leave byte-identical registries behind. Per-run
// namespaces are named by spec index (not completion order), and every
// run.* instrument observes only simulation-derived values, so the full
// snapshot — counters, gauges, and histogram buckets — must match exactly.
//
// Wall-clock instruments (names ending in "_ms") are the one sanctioned
// source of nondeterminism; none is registered on a run's registry, which
// is what lets this test demand full-snapshot equality.
func TestTelemetryDeterministicAcrossWorkers(t *testing.T) {
	rootSerial := telemetry.NewRegistry()
	rootParallel := telemetry.NewRegistry()
	Run(testSuite(false), Options{Workers: 1, Metrics: rootSerial})
	Run(testSuite(false), Options{Workers: 8, Metrics: rootParallel})

	js, jp := snapshotJSON(t, rootSerial), snapshotJSON(t, rootParallel)
	if js != jp {
		t.Errorf("telemetry diverges between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", js, jp)
	}

	// Sanity: the snapshot actually holds per-run instruments (an empty
	// registry would also compare equal).
	snap := rootSerial.Snapshot()
	wantRuns := len(testSuite(false).Specs)
	runs := map[string]bool{}
	for name := range snap.Counters {
		if i := strings.Index(name, "/run.intervals"); i >= 0 {
			runs[name[:i]] = true
		}
	}
	if len(runs) != wantRuns {
		t.Fatalf("found run.intervals under %d namespaces, want %d: %v", len(runs), wantRuns, runs)
	}
	for ns := range runs {
		if !strings.HasPrefix(ns, "determinism#1/") {
			t.Fatalf("run namespace %q not under suite group determinism#1", ns)
		}
		h, ok := snap.Histograms[ns+"/run.interval.p99"]
		if !ok {
			t.Fatalf("missing %s/run.interval.p99 histogram", ns)
		}
		if h.Count == 0 {
			t.Fatalf("%s/run.interval.p99 observed nothing", ns)
		}
	}
}

// TestTelemetryGroupsDoNotDoubleCount: executing the same suite twice on one
// root registry lands each execution in its own "#k" group; the first
// execution's counts are untouched by the second.
func TestTelemetryGroupsDoNotDoubleCount(t *testing.T) {
	root := telemetry.NewRegistry()
	s := testSuite(false)
	// Trim to one cheap spec; this test is about namespacing, not coverage.
	s.Specs = s.Specs[:1]
	Run(s, Options{Workers: 1, Metrics: root})
	first := root.Snapshot()
	Run(s, Options{Workers: 1, Metrics: root})
	second := root.Snapshot()

	key := "determinism#1/000-" + s.Specs[0].Name + "/run.intervals"
	v1, ok := first.Counters[key]
	if !ok || v1 == 0 {
		t.Fatalf("first execution missing %s (counters: %v)", key, first.Counters)
	}
	if v2 := second.Counters[key]; v2 != v1 {
		t.Fatalf("re-execution mutated first group's counter: %d -> %d", v1, v2)
	}
	key2 := "determinism#2/000-" + s.Specs[0].Name + "/run.intervals"
	if v2, ok := second.Counters[key2]; !ok || v2 != v1 {
		t.Fatalf("second execution group = %d, want %d under %s", v2, v1, key2)
	}
}
