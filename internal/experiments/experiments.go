// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 5). Each experiment is a function returning renderable
// tables; the sinan-bench command and the repository's benchmark suite are
// thin wrappers around them. A Lab caches the expensive shared artifacts
// (collected datasets, trained hybrid models) so experiment suites do not
// repeat work, and a Quick flag scales collection and training down for CI
// and benchmarking runs.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"sinan/internal/apps"
	"sinan/internal/collect"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/harness"
	"sinan/internal/telemetry"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Lab caches datasets and models shared across experiments. A Lab is safe
// for concurrent use: each cached artifact is memoized behind its own
// sync.Once, so two goroutines requesting the same dataset or model trigger
// exactly one collection/training run and observe the same artifact, and
// progress logging is serialised.
//
// The artifacts a Lab hands out are shared, and safely so: trained models
// are immutable values evaluated through per-caller contexts. Harness-driven
// code still builds per-run policies with core.SchedulerFactory, because the
// scheduler's trust counters and history are per-run state.
type Lab struct {
	// Quick scales everything down (shorter collection, fewer epochs,
	// fewer sweep points) for CI/benchmark runs.
	Quick bool
	// Log receives progress lines (nil silences them).
	Log io.Writer
	// Workers sizes the harness worker pools the experiment drivers use
	// (<= 0 means GOMAXPROCS).
	Workers int
	// Metrics is the lab's telemetry root: every suite any experiment runs
	// lands in it under a per-execution group ("<suite>#k") with one child
	// registry per run. Serve it live (sinan-bench -metrics-addr) or dump a
	// snapshot at the end of a session. Always non-nil after NewLab.
	Metrics *telemetry.Registry

	logMu sync.Mutex

	// collectFn and trainFn are seams for tests; they default to
	// collect.Run and core.TrainHybrid.
	collectFn func(collect.Config) *dataset.Dataset
	trainFn   func(*dataset.Dataset, float64, core.TrainOptions) (*core.HybridModel, core.TrainReport)

	hotelDSOnce, socialDSOnce sync.Once
	hotelMOnce, socialMOnce   sync.Once
	hotelDS                   *dataset.Dataset
	socialDS                  *dataset.Dataset
	hotelM                    *core.HybridModel
	socialM                   *core.HybridModel

	hotelRep, socialRep core.TrainReport
}

// NewLab creates a lab; quick=true is the benchmark-friendly configuration.
func NewLab(quick bool, log io.Writer) *Lab {
	return &Lab{
		Quick:     quick,
		Log:       log,
		Metrics:   telemetry.NewRegistry(),
		collectFn: collect.Run,
		trainFn:   core.TrainHybrid,
	}
}

func (l *Lab) logf(format string, args ...interface{}) {
	if l.Log != nil {
		l.logMu.Lock()
		defer l.logMu.Unlock()
		fmt.Fprintf(l.Log, format+"\n", args...)
	}
}

// workers resolves the harness pool size for this lab.
func (l *Lab) workers() int {
	if l.Workers > 0 {
		return l.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runSuite executes a suite of managed runs on the lab's worker pool and
// returns outcomes in spec order.
func (l *Lab) runSuite(name string, baseSeed int64, specs []harness.RunSpec) []harness.Outcome {
	return harness.Run(
		harness.Suite{Name: name, BaseSeed: baseSeed, Specs: specs},
		harness.Options{Workers: l.workers(), Metrics: l.Metrics},
	)
}

// pmap fans fn out over [0, n) on the lab's worker pool, preserving order.
func pmap[T any](l *Lab, n int, fn func(i int) T) []T {
	return harness.Map(n, l.workers(), fn)
}

// scale returns quick or full depending on the lab mode.
func (l *Lab) scale(quick, full float64) float64 {
	if l.Quick {
		return quick
	}
	return full
}

func (l *Lab) scaleInt(quick, full int) int {
	if l.Quick {
		return quick
	}
	return full
}

// CollectSeconds returns the collection duration for an app.
func (l *Lab) collectSeconds(appName string) float64 {
	// The paper collects 8.7h (hotel) and 16h (social); scaled to simulated
	// minutes here — the simulator's boundary region is much smaller.
	if appName == "hotel" {
		return l.scale(3000, 4500)
	}
	return l.scale(6000, 9000)
}

func (l *Lab) epochs() int { return l.scaleInt(12, 16) }

// CollectApp runs a bandit collection session for an app variant.
func (l *Lab) CollectApp(app *apps.App, lo, hi float64, seconds float64, seed int64) *dataset.Dataset {
	l.logf("collect: %s for %.0fs over [%.0f, %.0f] rps", app.Name, seconds, lo, hi)
	collectFn := l.collectFn
	if collectFn == nil {
		collectFn = collect.Run
	}
	return collectFn(collect.Config{
		App:      app,
		Policy:   collect.NewBandit(app, seed),
		Pattern:  collect.SweepPattern{MinRPS: lo, MaxRPS: hi, SegmentLen: 30, Seed: seed},
		Duration: seconds,
		Seed:     seed,
		Dims:     collect.DefaultDims(app),
		K:        5,
	})
}

// HotelLoads returns the Fig. 11 load sweep for Hotel Reservation
// (emulated users ≈ RPS).
func (l *Lab) HotelLoads() []float64 {
	if l.Quick {
		return []float64{1000, 1900, 2800, 3400, 3700}
	}
	return []float64{1000, 1300, 1600, 1900, 2200, 2500, 2800, 3100, 3400, 3700}
}

// SocialLoads returns the Fig. 11 load sweep for Social Network.
func (l *Lab) SocialLoads() []float64 {
	if l.Quick {
		return []float64{50, 150, 250, 350, 450}
	}
	return []float64{50, 100, 150, 200, 250, 300, 350, 400, 450}
}

func (l *Lab) train(ds *dataset.Dataset, qos float64, opts core.TrainOptions) (*core.HybridModel, core.TrainReport) {
	trainFn := l.trainFn
	if trainFn == nil {
		trainFn = core.TrainHybrid
	}
	return trainFn(ds, qos, opts)
}

// HotelDataset returns (collecting once) the hotel training dataset.
// Concurrent callers block until the single collection finishes and then
// share the artifact.
func (l *Lab) HotelDataset() *dataset.Dataset {
	l.hotelDSOnce.Do(func() {
		l.hotelDS = l.CollectApp(apps.NewHotelReservation(), 500, 3700, l.collectSeconds("hotel"), 42)
		l.logf("hotel dataset: %d samples, %.1f%% violations", l.hotelDS.Len(), 100*l.hotelDS.ViolationRate())
	})
	return l.hotelDS
}

// SocialDataset returns (collecting once) the social-network dataset.
func (l *Lab) SocialDataset() *dataset.Dataset {
	l.socialDSOnce.Do(func() {
		l.socialDS = l.CollectApp(apps.NewSocialNetwork(), 50, 450, l.collectSeconds("social"), 43)
		l.logf("social dataset: %d samples, %.1f%% violations", l.socialDS.Len(), 100*l.socialDS.ViolationRate())
	})
	return l.socialDS
}

// HotelModel returns (training once) the hotel hybrid model.
func (l *Lab) HotelModel() (*core.HybridModel, core.TrainReport) {
	l.hotelMOnce.Do(func() {
		l.logf("train: hotel hybrid (%d epochs)", l.epochs())
		l.hotelM, l.hotelRep = l.train(l.HotelDataset(), 200, core.TrainOptions{
			Seed: 1, Epochs: l.epochs(),
		})
		l.logf("hotel model: valRMSE=%.1fms subQoS=%.1fms BTacc=%.3f",
			l.hotelRep.ValRMSE, l.hotelRep.ValRMSESubQoS, l.hotelRep.ValAcc)
	})
	return l.hotelM, l.hotelRep
}

// SocialModel returns (training once) the social hybrid model.
func (l *Lab) SocialModel() (*core.HybridModel, core.TrainReport) {
	l.socialMOnce.Do(func() {
		l.logf("train: social hybrid (%d epochs)", l.epochs())
		l.socialM, l.socialRep = l.train(l.SocialDataset(), 500, core.TrainOptions{
			Seed: 2, Epochs: l.epochs(),
		})
		l.logf("social model: valRMSE=%.1fms subQoS=%.1fms BTacc=%.3f",
			l.socialRep.ValRMSE, l.socialRep.ValRMSESubQoS, l.socialRep.ValAcc)
	})
	return l.socialM, l.socialRep
}

// Registry maps experiment ids to their drivers.
type Experiment struct {
	ID    string
	Title string
	Run   func(l *Lab) []*Table
}

// All lists every reproducible table/figure in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "Fig. 3 — delayed queueing effect", Fig3},
		{"fig4", "Fig. 4 — multi-task NN overprediction", Fig4},
		{"fig9", "Fig. 9 — dataset distribution & truncation study", Fig9},
		{"fig10", "Fig. 10 — autoscale/random data collection", Fig10},
		{"table2", "Table 2 — latency-predictor comparison", Table2},
		{"table3", "Table 3 — violation-predictor accuracy", Table3},
		{"fig11", "Fig. 11 — QoS & CPU across loads and policies", Fig11},
		{"fig12", "Fig. 12 — managed timelines (constant & diurnal)", Fig12},
		{"fig13", "Fig. 13 — incremental retraining", Fig13},
		{"fig14", "Fig. 14/15 — GCE scalability across mixes", Fig14},
		{"fig16", "Fig. 16 — Redis log-sync pathology", Fig16},
		{"ablation", "Ablations — loss function & violation-predictor features", Ablation},
		{"table4", "Table 4 — explainability rankings", Table4},
		{"chaos", "Chaos — QoS under predictor/agent/replica faults", Chaos},
		{"overload", "Overload — admission control, load shedding & scheduler brownout", Overload},
		{"drift", "Drift — gated model lifecycle vs blind swap under workload shift", Drift},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
