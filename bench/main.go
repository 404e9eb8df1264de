// Command bench is the repository's benchmark: four workloads over Sinan's
// control loop, end-to-end metrics with regression bounds, and a per-layer
// budget from a traced pass and direct probes. It measures every layer from
// outside, through the seams the loop already has (runner.Policy,
// statplane.Plane via runner.Config.Plane, core.Predictor), and touches no
// other file of the repository. README.md has the tables and procedures.
//
//	go run ./bench                       all workloads, fixed repetitions, then the traced pass
//	go run ./bench -workload W -seconds 15 -trace 0|1    one driver-style run (see BENCHMARK.json)
//	go run ./bench -compare A.json B.json                verdict per workload x metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload, for -seconds (default: all four, fixed repetition counts)")
		seed     = flag.Int64("seed", 1, "workload seed: run r of a workload uses seed*1000+r")
		seconds  = flag.Float64("seconds", 0, "how long each pass measures (0: fixed repetition counts)")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs the traced pass and reports per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny sizes, to check that the benchmark still runs")
		compare  = flag.Bool("compare", false, "compare two result.json files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	opt := options{
		Workload: *workload, Seed: *seed, Trace: *trace != 0,
		Budget: time.Duration(*seconds * float64(time.Second)),
		Scale:  defaultScale, OutDir: "bench/out", Log: os.Stderr,
	}
	if *smoke {
		opt.Scale = smokeScale
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	report(os.Stdout, res)
	if opt.Workload != "" {
		fmt.Println(driverLine(res, opt))
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// driverLine is the last line of a single-workload invocation: one JSON
// object with the run's verdict and, by name, every end-to-end metric of
// BENCHMARK.json (untraced) or every per-layer metric (traced).
func driverLine(res *result, opt options) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Correct, Failed: len(res.Problems), Metrics: map[string]value{}}
	if opt.Trace {
		for _, m := range perLayer {
			out.Metrics[m.Name] = value{res.Layers[m.Name], m.Unit}
		}
		out.Attempted = res.TracedOps
	} else {
		wr := res.Workloads[opt.Workload]
		out.Attempted, out.Failed = wr.Ops, max(wr.Failed, len(res.Problems))
		for _, m := range endToEnd {
			if !m.Contract {
				continue
			}
			s, ok := wr.Metrics[m.Name]
			if !ok {
				s = res.Global[m.Name]
			}
			out.Metrics[m.Name] = value{s.Median, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	return string(line)
}
