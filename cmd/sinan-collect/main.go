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
	"sinan/internal/runner"
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
		out      = flag.String("out", "dataset.gob", "output dataset path")
		platform = flag.String("platform", "local", "platform: local | gce")
		encrypt  = flag.Bool("encrypt", false, "social: enable AES post encryption variant")
		logsync  = flag.Bool("logsync", false, "social: enable Redis log-sync pathology")
		replicas = flag.Int("replicas", 1, "replica multiplier for stateless tiers")
	)
	flag.Parse()

	app, lo, hi := buildApp(*appName, *platform, *encrypt, *logsync, *replicas)
	if *minRPS > 0 {
		lo = *minRPS
	}
	if *maxRPS > 0 {
		hi = *maxRPS
	}

	var pol runner.Policy
	switch *policy {
	case "bandit":
		pol = collect.NewBandit(app, *seed)
	case "random":
		pol = collect.NewRandom(app, *seed)
	case "autoscale":
		pol = baselines.NewAutoScaleOpt()
	default:
		log.Fatalf("unknown policy %q", *policy)
	}

	fmt.Fprintf(os.Stderr, "collecting %s for %.0fs with %s over [%.0f, %.0f] RPS...\n",
		app.Name, *duration, pol.Name(), lo, hi)
	ds := collect.Run(collect.Config{
		App:      app,
		Policy:   pol,
		Pattern:  collect.SweepPattern{MinRPS: lo, MaxRPS: hi, SegmentLen: *segment, Seed: *seed},
		Duration: *duration,
		Seed:     *seed,
		Dims:     collect.DefaultDims(app),
		K:        *k,
	})
	if err := lifecycle.WriteAtomic(*out, ds.Save); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d samples (violation rate %.1f%%) to %s\n",
		ds.Len(), 100*ds.ViolationRate(), *out)
}

// buildApp constructs the requested application variant and returns it with
// its default collection load range.
func buildApp(name, platform string, encrypt, logsync bool, replicas int) (*apps.App, float64, float64) {
	var opts []apps.Option
	switch platform {
	case "local":
	case "gce":
		opts = append(opts, apps.WithPlatform(apps.GCE))
	default:
		log.Fatalf("unknown platform %q", platform)
	}
	if replicas > 1 {
		opts = append(opts, apps.WithReplicaMult(replicas))
	}
	switch name {
	case "hotel":
		if encrypt || logsync {
			log.Fatal("-encrypt / -logsync apply to the social app only")
		}
		return apps.NewHotelReservation(opts...), 500, 3700
	case "social":
		if encrypt {
			opts = append(opts, apps.WithEncryption())
		}
		if logsync {
			opts = append(opts, apps.WithLogSync())
		}
		return apps.NewSocialNetwork(opts...), 50, 450
	}
	log.Fatalf("unknown app %q", name)
	return nil, 0, 0
}
