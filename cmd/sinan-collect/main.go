// Command sinan-collect runs a training-data collection session against a
// simulated application and writes the gathered dataset to disk.
//
// Example:
//
//	sinan-collect -app hotel -policy bandit -duration 3000 -out hotel.ds
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"sinan/internal/apps"
	"sinan/internal/baselines"
	"sinan/internal/collect"
	"sinan/internal/lifecycle"
)

func main() {
	var (
		appName  = flag.String("app", "hotel", "application: hotel | social")
		policy   = flag.String("policy", "bandit", "collection policy: bandit | random | autoscale")
		duration = flag.Float64("duration", 3000, "simulated seconds to collect")
		seed     = flag.Int64("seed", 1, "random seed")
		minRPS   = flag.Float64("minrps", 0, "minimum load (default: app preset)")
		maxRPS   = flag.Float64("maxrps", 0, "maximum load (default: app preset)")
		segment  = flag.Float64("segment", 30, "seconds per load level")
		k        = flag.Int("k", 5, "violation lookahead intervals")
		out      = flag.String("out", "dataset.bin", "output dataset path")
		platform = flag.String("platform", "local", "platform: local | gce")
		encrypt  = flag.Bool("encrypt", false, "social: enable AES post encryption variant")
		logsync  = flag.Bool("logsync", false, "social: enable Redis log-sync pathology")
		replicas = flag.Int("replicas", 1, "replica multiplier for stateless tiers")
	)
	flag.Parse()

	var opts []apps.Option
	if *replicas > 1 {
		opts = append(opts, apps.WithReplicaMult(*replicas))
	}
	if *encrypt {
		opts = append(opts, apps.WithEncryption())
	}
	if *logsync {
		opts = append(opts, apps.WithLogSync())
	}
	app, err := apps.Lookup(*appName, *platform, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if (*encrypt || *logsync) && *appName != "social" {
		log.Fatal("-encrypt / -logsync apply to the social app only")
	}

	cfg := collect.BanditSession(app, *seed)
	switch *policy {
	case "bandit":
	case "random":
		cfg.Policy = collect.NewRandom(app, *seed)
	case "autoscale":
		cfg.Policy = baselines.NewAutoScaleOpt()
	default:
		log.Fatalf("unknown policy %q", *policy)
	}
	lo, hi := app.LoadRange()
	if *minRPS > 0 {
		lo = *minRPS
	}
	if *maxRPS > 0 {
		hi = *maxRPS
	}
	cfg.Pattern = collect.SweepPattern{MinRPS: lo, MaxRPS: hi, SegmentLen: *segment, Seed: *seed}
	cfg.Duration, cfg.K = *duration, *k

	fmt.Fprintf(os.Stderr, "collecting %s for %.0fs with %s over [%.0f, %.0f] RPS...\n",
		app.Name, *duration, cfg.Policy.Name(), lo, hi)
	ds := collect.Run(cfg)
	if err := lifecycle.WriteAtomic(*out, ds.Save); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d samples (violation rate %.1f%%) to %s\n",
		ds.Len(), 100*ds.ViolationRate(), *out)
}
