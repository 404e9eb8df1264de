// Command sinan-run executes one managed session of an application under a
// chosen resource-management policy and prints the per-interval trace and a
// summary. For policy=sinan a trained hybrid model (sinan-train) is needed.
//
// Example:
//
//	sinan-collect -app hotel -out hotel.ds
//	sinan-train -data hotel.ds -qos 200 -out hotel.model
//	sinan-run -app hotel -policy sinan -model hotel.model -load 2000 -duration 180
//
// With -seeds N the same configuration runs under N consecutive seeds as a
// parallel suite and prints per-seed plus aggregate summaries.
//
// With -stats-listen ADDR the run's tier statistics flow over a real TCP
// stats plane instead of in-process agents: the run hosts a hub on ADDR,
// sinan-agent processes connect and claim tier partitions, and each
// interval's snapshot is assembled from their reports under -stats-deadline
// (see examples/distributed/README.md for a walk-through).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"sinan/internal/apps"
	"sinan/internal/baselines"
	"sinan/internal/cluster"
	"sinan/internal/core"
	"sinan/internal/harness"
	"sinan/internal/lifecycle"
	"sinan/internal/predsvc"
	"sinan/internal/runner"
	"sinan/internal/statplane"
	"sinan/internal/workload"
)

func main() {
	var (
		appName  = flag.String("app", "hotel", "application: hotel | social")
		policy   = flag.String("policy", "sinan", "policy: sinan | autoscale-opt | autoscale-cons | powerchief | static")
		model    = flag.String("model", "sinan.model", "hybrid model path (policy=sinan)")
		load     = flag.Float64("load", 1000, "emulated users (≈ RPS)")
		diurnal  = flag.Bool("diurnal", false, "diurnal load between load/4 and load")
		duration = flag.Float64("duration", 180, "simulated seconds")
		seed     = flag.Int64("seed", 1, "random seed")
		trace    = flag.Bool("trace", false, "print the per-interval trace")
		pd       = flag.Float64("pd", 0, "override scale-down violation threshold")
		pu       = flag.Float64("pu", 0, "override scale-up violation threshold")
		connect  = flag.String("connect", "", "prediction-service address (use a remote model via sinan-serve)")
		csvPath  = flag.String("csv", "", "write the per-interval trace as CSV to this file")
		platform = flag.String("platform", "local", "platform: local | gce")
		seeds    = flag.Int("seeds", 1, "run N seeds (seed, seed+1, ...) in parallel and report per-seed plus aggregate summaries")

		statsListen   = flag.String("stats-listen", "", "host a distributed stats plane on this address and collect tier stats from sinan-agent processes (empty = in-process agents)")
		statsPer      = flag.Int("stats-tiers-per-agent", 1, "tiers per agent partition on the distributed stats plane")
		statsDeadline = flag.Duration("stats-deadline", 250*time.Millisecond, "per-interval wall-clock budget for agent reports; late tiers are imputed")
		statsWait     = flag.Duration("stats-wait", 15*time.Second, "how long to wait for agents to cover every partition before starting")
	)
	flag.Parse()

	if *seeds > 1 && (*connect != "" || *trace || *csvPath != "" || *statsListen != "") {
		log.Fatal("-seeds > 1 cannot be combined with -connect, -trace, -csv, or -stats-listen")
	}

	app, err := apps.Lookup(*appName, *platform)
	if err != nil {
		log.Fatal(err)
	}

	// Policies carry per-run state, so runs are built from a factory: every
	// seed gets a fresh policy instance. The sinan schedulers share the one
	// immutable model, each evaluating it on a prediction context of its own.
	var mkPolicy runner.PolicyFactory
	switch *policy {
	case "sinan":
		var p core.Predictor
		if *connect != "" {
			c, err := predsvc.Dial(*connect)
			if err != nil {
				log.Fatalf("connecting to prediction service: %v", err)
			}
			defer c.Close()
			p = c
		} else {
			m, _, err := lifecycle.ReadFile(*model)
			if err != nil {
				log.Fatalf("loading model: %v (train one with sinan-train)", err)
			}
			p = m
		}
		if n := p.Meta().D.N; n != len(app.Tiers) {
			log.Fatalf("the model was trained on %d tiers, %s has %d", n, *appName, len(app.Tiers))
		}
		mkPolicy = func() runner.Policy {
			return core.NewScheduler(app, p, core.SchedulerOptions{Pd: *pd, Pu: *pu})
		}
	case "autoscale-opt":
		mkPolicy = func() runner.Policy { return baselines.NewAutoScaleOpt() }
	case "autoscale-cons":
		mkPolicy = func() runner.Policy { return baselines.NewAutoScaleCons() }
	case "powerchief":
		mkPolicy = func() runner.Policy { return baselines.NewPowerChief() }
	case "static":
		mkPolicy = func() runner.Policy { return &runner.Static{Label: "static-max"} }
	default:
		log.Fatalf("unknown policy %q", *policy)
	}

	var pattern workload.Pattern = workload.Constant(*load)
	if *diurnal {
		pattern = workload.Diurnal{Min: *load / 4, Max: *load, Period: *duration}
	}

	if *seeds > 1 {
		multiSeed(app, mkPolicy, pattern, *load, *duration, *seed, *seeds)
		return
	}

	pol := mkPolicy()
	cfg := runner.Config{
		App: app, Policy: pol, Pattern: pattern,
		Duration: *duration, Seed: *seed, Warmup: 15, KeepTrace: true,
	}

	// With -stats-listen the run's tier stats travel over TCP: a hub hands
	// each connecting sinan-agent a tier partition, pushes it per-interval
	// samples, and assembles whatever reports return before the deadline.
	// Missing tiers surface as StatsOK=false and are imputed by the policy,
	// so absent or flaky agents degrade the run instead of stalling it.
	var hub *statplane.Hub
	if *statsListen != "" {
		cfg.Plane = func(cl *cluster.Cluster, gw statplane.GatewaySource) statplane.Plane {
			h, err := statplane.NewHub(*statsListen, statplane.HubConfig{
				Sampler: cl, NumTiers: cl.NumTiers(), Gateway: gw,
				IntervalSec: runner.Interval, TiersPerAgent: *statsPer,
				Deadline: *statsDeadline,
			})
			if err != nil {
				log.Fatalf("stats hub: %v", err)
			}
			fmt.Fprintf(os.Stderr, "stats hub on %s: waiting up to %s for %d agent(s)...\n",
				h.Addr(), *statsWait, h.Partitions())
			got := h.AwaitAgents(h.Partitions(), *statsWait)
			fmt.Fprintf(os.Stderr, "stats hub: %d/%d agent(s) connected\n", got, h.Partitions())
			hub = h
			return h
		}
	}

	fmt.Fprintf(os.Stderr, "running %s under %s at %.0f users for %.0fs...\n",
		app.Name, pol.Name(), *load, *duration)
	res := runner.Run(cfg)
	if hub != nil {
		hub.Close()
	}

	if *csvPath != "" {
		err := lifecycle.WriteAtomic(*csvPath, func(w io.Writer) error {
			return runner.WriteTraceCSV(w, res.Trace, app.TierNames())
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote trace CSV to %s\n", *csvPath)
		// The run's telemetry snapshot rides along next to the trace: same
		// path with a .metrics.json suffix, holding the run.* instruments
		// plus whatever the policy registered (sched.* for Sinan).
		mpath := strings.TrimSuffix(*csvPath, ".csv") + ".metrics.json"
		if err := lifecycle.WriteAtomic(mpath, res.Metrics.Snapshot().WriteJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote run telemetry to %s\n", mpath)
	}
	if *trace {
		fmt.Println("t(s)  rps   p99(ms)  pred(ms)  pviol  totalCPU")
		for _, row := range res.Trace {
			fmt.Printf("%-5.0f %-5.0f %-8.1f %-9.1f %-6.2f %-8.1f\n",
				row.Time, row.RPS, row.P99MS, row.PredP99MS, row.PViol, row.Total)
		}
	}
	fmt.Printf("policy=%s users=%.0f meetQoS=%.3f meanCPU=%.1f maxCPU=%.1f completed=%d dropped=%d\n",
		pol.Name(), *load, res.Meter.MeetProb(), res.Meter.MeanAlloc(), res.Meter.MaxAlloc(),
		res.Completed, res.Dropped)
}

// multiSeed runs the same configuration under N consecutive seeds as one
// parallel suite and prints per-seed summaries plus the aggregate.
func multiSeed(app *apps.App, mk runner.PolicyFactory, pattern workload.Pattern,
	load, duration float64, base int64, n int) {
	specs := make([]harness.RunSpec, n)
	for i := range specs {
		specs[i] = harness.RunSpec{
			Name: fmt.Sprintf("seed-%d", base+int64(i)), App: app,
			Policy: mk, Pattern: pattern,
			Duration: duration, Seed: base + int64(i), Warmup: 15,
		}
	}
	polName := mk().Name()
	fmt.Fprintf(os.Stderr, "running %s under %s at %.0f users for %.0fs x %d seeds...\n",
		app.Name, polName, load, duration, n)
	outs := harness.Run(harness.Suite{Name: "sinan-run", BaseSeed: base, Specs: specs},
		harness.Options{Progress: os.Stderr})

	var meet, mean, maxA float64
	for _, o := range outs {
		res := o.Result
		fmt.Printf("seed=%d meetQoS=%.3f meanCPU=%.1f maxCPU=%.1f completed=%d dropped=%d\n",
			o.Seed, res.Meter.MeetProb(), res.Meter.MeanAlloc(), res.Meter.MaxAlloc(),
			res.Completed, res.Dropped)
		meet += res.Meter.MeetProb()
		mean += res.Meter.MeanAlloc()
		if res.Meter.MaxAlloc() > maxA {
			maxA = res.Meter.MaxAlloc()
		}
	}
	fn := float64(n)
	fmt.Printf("aggregate policy=%s users=%.0f seeds=%d meanMeetQoS=%.3f meanCPU=%.1f maxCPU=%.1f\n",
		polName, load, n, meet/fn, mean/fn, maxA)
}
