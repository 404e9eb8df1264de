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

// CSV writes the table as comma-separated values and returns the first
// write error, so a caller cannot mistake a short file for a whole one.
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Header, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
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

	// collectFn and trainFn are seams for tests; NewLab sets them to
	// collect.Run and core.TrainHybrid.
	collectFn func(collect.Config) *dataset.Dataset
	trainFn   func(*dataset.Dataset, float64, core.TrainOptions) (*core.HybridModel, core.TrainReport)

	hotel, social cached
}

// cached is one application's training dataset and hybrid model, each
// collected or trained at most once.
type cached struct {
	name                   string // "hotel" | "social", for collectSeconds and the log
	app                    *apps.App
	collectSeed, trainSeed int64

	dsOnce, mOnce sync.Once
	ds            *dataset.Dataset
	m             *core.HybridModel
	rep           core.TrainReport
}

// NewLab creates a lab; quick=true is the benchmark-friendly configuration.
func NewLab(quick bool, log io.Writer) *Lab {
	return &Lab{
		Quick:     quick,
		Log:       log,
		Metrics:   telemetry.NewRegistry(),
		collectFn: collect.Run,
		trainFn:   core.TrainHybrid,
		hotel:     cached{name: "hotel", app: apps.NewHotelReservation(), collectSeed: 42, trainSeed: 1},
		social:    cached{name: "social", app: apps.NewSocialNetwork(), collectSeed: 43, trainSeed: 2},
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

// CollectApp runs an application's bandit collection session
// (collect.BanditSession) for the given simulated seconds.
func (l *Lab) CollectApp(app *apps.App, seconds float64, seed int64) *dataset.Dataset {
	cfg := collect.BanditSession(app, seed)
	cfg.Duration = seconds
	return l.collect(cfg)
}

// collect runs one collection session through the lab's collector.
func (l *Lab) collect(cfg collect.Config) *dataset.Dataset {
	l.logf("collect: %s for %.0fs with %s", cfg.App.Name, cfg.Duration, cfg.Policy.Name())
	return l.collectFn(cfg)
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

// HotelDataset returns (collecting once) the hotel training dataset.
// Concurrent callers block until the single collection finishes and then
// share the artifact.
func (l *Lab) HotelDataset() *dataset.Dataset { return l.cachedDataset(&l.hotel) }

// SocialDataset returns (collecting once) the social-network dataset.
func (l *Lab) SocialDataset() *dataset.Dataset { return l.cachedDataset(&l.social) }

// HotelModel returns (training once) the hotel hybrid model.
func (l *Lab) HotelModel() (*core.HybridModel, core.TrainReport) { return l.cachedModel(&l.hotel) }

// SocialModel returns (training once) the social hybrid model.
func (l *Lab) SocialModel() (*core.HybridModel, core.TrainReport) { return l.cachedModel(&l.social) }

func (l *Lab) cachedDataset(c *cached) *dataset.Dataset {
	c.dsOnce.Do(func() {
		c.ds = l.CollectApp(c.app, l.collectSeconds(c.name), c.collectSeed)
		l.logf("%s dataset: %d samples, %.1f%% violations", c.name, c.ds.Len(), 100*c.ds.ViolationRate())
	})
	return c.ds
}

func (l *Lab) cachedModel(c *cached) (*core.HybridModel, core.TrainReport) {
	c.mOnce.Do(func() {
		l.logf("train: %s hybrid (%d epochs)", c.name, l.epochs())
		c.m, c.rep = l.trainFn(l.cachedDataset(c), c.app.QoSMS, core.TrainOptions{
			Seed: c.trainSeed, Epochs: l.epochs(),
		})
		l.logf("%s model: valRMSE=%.1fms subQoS=%.1fms BTacc=%.3f",
			c.name, c.rep.ValRMSE, c.rep.ValRMSESubQoS, c.rep.ValAcc)
	})
	return c.m, c.rep
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
