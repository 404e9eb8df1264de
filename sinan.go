// Package sinan is a complete, self-contained Go implementation of Sinan —
// the ML-based, QoS-aware cluster manager for interactive cloud
// microservices of Zhang et al. (ASPLOS 2021) — together with every
// substrate it needs: a deterministic discrete-event microservice cluster
// simulator, the DeathStarBench application topologies it is evaluated on,
// a from-scratch neural-network and gradient-boosted-trees stack, the
// bandit-based training-data collector, the autoscaling and PowerChief
// baselines, and a LIME-style explainability tool.
//
// The typical pipeline mirrors the paper's workflow:
//
//	app := sinan.HotelReservation()                        // build an application
//	ds := sinan.Collect(app, sinan.CollectOptions{...})    // explore the allocation space
//	model, report := sinan.Train(ds, app.QoSMS, ...)       // fit CNN + Boosted Trees
//	result := sinan.Manage(app, model, sinan.RunOptions{}) // deploy the online scheduler
//
// See the examples/ directory for runnable end-to-end programs and
// internal/experiments for the drivers that regenerate every table and
// figure of the paper's evaluation.
package sinan

import (
	"io"

	"sinan/internal/apps"
	"sinan/internal/baselines"
	"sinan/internal/cluster"
	"sinan/internal/collect"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/explain"
	"sinan/internal/harness"
	"sinan/internal/lifecycle"
	"sinan/internal/runner"
	"sinan/internal/workload"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// App is a deployable application: tier graph plus request mix.
	App = apps.App
	// Dataset is a collected training set (inputs + targets).
	Dataset = dataset.Dataset
	// Model is the hybrid CNN + Boosted Trees predictor.
	Model = core.HybridModel
	// TrainReport carries training/validation accuracy metrics.
	TrainReport = core.TrainReport
	// Policy decides per-tier CPU allocations each decision interval.
	Policy = runner.Policy
	// Result summarises a managed run.
	Result = runner.Result
	// Pattern yields the offered load (requests/second) over time.
	Pattern = workload.Pattern
	// AppOption customises application construction.
	AppOption = apps.Option
	// PolicyFactory constructs a fresh Policy instance per managed run;
	// suites require factories because policies carry per-run state.
	PolicyFactory = runner.PolicyFactory
	// RunSpec declares one managed run for the suite executor.
	RunSpec = harness.RunSpec
	// Suite is an ordered set of RunSpecs executed as one campaign.
	Suite = harness.Suite
	// Outcome pairs a RunSpec with its Result and resolved seed.
	Outcome = harness.Outcome
)

// Application constructors and variants (Sec. 2.2 of the paper).
var (
	// OnGCE deploys the application on the GCE platform profile.
	OnGCE = apps.WithPlatform(apps.GCE)
	// WithEncryption enables the AES post-encryption variant (social only).
	WithEncryption = apps.WithEncryption
	// WithLogSync enables the Redis log-sync pathology (social only).
	WithLogSync = apps.WithLogSync
	// WithReplicaMult multiplies stateless-tier replica counts.
	WithReplicaMult = apps.WithReplicaMult
)

// HotelReservation builds the 17-tier hotel booking application
// (QoS: 200 ms p99).
func HotelReservation(opts ...AppOption) *App { return apps.NewHotelReservation(opts...) }

// SocialNetwork builds the 28-tier social network application
// (QoS: 500 ms p99).
func SocialNetwork(opts ...AppOption) *App { return apps.NewSocialNetwork(opts...) }

// Constant returns a fixed-rate load pattern (users ≈ RPS).
func Constant(rps float64) Pattern { return workload.Constant(rps) }

// Diurnal returns a day-shaped load pattern.
func Diurnal(min, max, period float64) Pattern {
	return workload.Diurnal{Min: min, Max: max, Period: period}
}

// CollectOptions configures training-data collection.
type CollectOptions struct {
	MinRPS, MaxRPS float64 // explored load range (both 0 = the app's LoadRange)
	Duration       float64 // simulated seconds (0 = 3000)
	Seed           int64
	Lookahead      int // violation horizon K in intervals (0 = 5)
}

// Collect explores the application's resource-allocation space with the
// information-gain bandit of Sec. 4.2 and returns the gathered dataset.
func Collect(app *App, o CollectOptions) *Dataset {
	cfg := collect.BanditSession(app, o.Seed)
	if o.MinRPS != 0 || o.MaxRPS != 0 {
		cfg.Pattern = collect.Sweep(o.MinRPS, o.MaxRPS, o.Seed)
	}
	cfg.Duration = o.Duration
	if cfg.Duration == 0 {
		cfg.Duration = 3000
	}
	if o.Lookahead != 0 {
		cfg.K = o.Lookahead
	}
	return collect.Run(cfg)
}

// TrainOptions configures hybrid-model training.
type TrainOptions struct {
	Seed   int64
	Epochs int       // CNN epochs (0 = 12)
	Log    io.Writer // optional per-epoch loss log
}

// Train fits the hybrid model (CNN latency predictor + Boosted Trees
// violation predictor) on a dataset, per Sec. 3.
func Train(ds *Dataset, qosMS float64, o TrainOptions) (*Model, TrainReport) {
	return core.TrainHybrid(ds, qosMS, core.TrainOptions{
		Seed: o.Seed, Epochs: o.Epochs, Log: o.Log,
	})
}

// SaveModel writes a model to path as a checksummed artifact — the one
// on-disk model format, also what sinan-train writes — atomically.
func SaveModel(path string, m *Model) error {
	_, err := lifecycle.WriteFile(path, m, lifecycle.Manifest{})
	return err
}

// LoadModel reads a model written by SaveModel or sinan-train, verifying
// its checksum.
func LoadModel(path string) (*Model, error) {
	m, _, err := lifecycle.ReadFile(path)
	return m, err
}

// Scheduler returns Sinan's online scheduling policy for an application.
func Scheduler(app *App, m *Model) Policy {
	return core.NewScheduler(app, m, core.SchedulerOptions{})
}

// SchedulerFactory returns a PolicyFactory that builds a fresh Sinan
// scheduler for every run, which makes it safe to use across the runs of a
// parallel Suite. All runs share the model — a trained model is immutable —
// while each scheduler owns its prediction context and trust state.
func SchedulerFactory(app *App, m *Model) PolicyFactory {
	return core.SchedulerFactory(app, m, core.SchedulerOptions{})
}

// RunSuite executes every spec of a suite on a worker pool (workers <= 0
// uses GOMAXPROCS) and returns outcomes in spec order. Results are
// bit-identical for any worker count: each spec's seed depends only on the
// suite name, spec name, position, and base seed.
func RunSuite(s Suite, workers int) []Outcome {
	return harness.Run(s, harness.Options{Workers: workers})
}

// Baseline policies evaluated in the paper (Sec. 5.3).
func AutoScaleOpt() Policy  { return baselines.NewAutoScaleOpt() }
func AutoScaleCons() Policy { return baselines.NewAutoScaleCons() }
func PowerChief() Policy    { return baselines.NewPowerChief() }

// Importance is one entry of an explainability ranking.
type Importance = explain.Importance

// ResourceChannelNames labels the F resource channels of the model input.
var ResourceChannelNames = cluster.FeatureNames[:]

// violationSamples picks up to max samples from violation intervals (LIME
// is run around misbehaving timesteps, per Sec. 5.6).
func violationSamples(ds *Dataset, maxN int) *Dataset {
	var idx []int
	for i, v := range ds.P99s() {
		if v > 0 && ds.YViol[i] {
			idx = append(idx, i)
		}
		if len(idx) == maxN {
			break
		}
	}
	if len(idx) == 0 {
		for i := 0; i < ds.Len() && i < maxN; i++ {
			idx = append(idx, i)
		}
	}
	return ds.Select(idx)
}

// ExplainTiers ranks the application's tiers by their influence on the
// model's tail-latency prediction around violation intervals (LIME-style
// perturbation analysis, Sec. 5.6).
func ExplainTiers(m *Model, ds *Dataset, app *App) []Importance {
	sub := violationSamples(ds, 32)
	return explain.TierImportance(m.Lat, sub.Inputs(), ds.D, app.TierNames())
}

// ExplainResources ranks the resource channels of one tier by influence.
func ExplainResources(m *Model, ds *Dataset, tierIndex int) []Importance {
	sub := violationSamples(ds, 32)
	return explain.ResourceImportance(m.Lat, sub.Inputs(), ds.D, tierIndex, ResourceChannelNames)
}

// RunOptions configures a managed run.
type RunOptions struct {
	Load      Pattern // offered load (nil = Constant(1000))
	Duration  float64 // simulated seconds (0 = 180)
	Seed      int64
	Warmup    float64 // seconds excluded from the QoS meter
	KeepTrace bool
}

// Manage runs the application under the given policy and returns QoS and
// CPU statistics (and, optionally, the per-interval trace).
func Manage(app *App, p Policy, o RunOptions) *Result {
	if o.Load == nil {
		o.Load = workload.Constant(1000)
	}
	if o.Duration == 0 {
		o.Duration = 180
	}
	return runner.Run(runner.Config{
		App:       app,
		Policy:    p,
		Pattern:   o.Load,
		Duration:  o.Duration,
		Seed:      o.Seed,
		Warmup:    o.Warmup,
		KeepTrace: o.KeepTrace,
	})
}
