// Command sinan-bench regenerates the paper's tables and figures.
//
// Examples:
//
//	sinan-bench -exp table2          # one experiment
//	sinan-bench -exp fig11 -full     # full-size sweep
//	sinan-bench -exp chaos           # robustness under injected faults
//	sinan-bench -exp overload        # admission control & scheduler brownout
//	sinan-bench -exp all             # everything, quick mode
//	sinan-bench -list                # available experiments
//
// Telemetry: every managed run any experiment executes lands in the lab's
// metrics registry (one child namespace per suite execution and run).
// -metrics-addr serves the registry live as JSON at /metrics (plus pprof at
// /debug/pprof/) while the experiments run; -metrics-json writes the final
// snapshot to a file when all experiments have finished.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"sinan/internal/experiments"
	"sinan/internal/harness"
	"sinan/internal/lifecycle"
	"sinan/internal/telemetry"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id (fig3..fig16, table2..table4, chaos) or 'all'")
		full        = flag.Bool("full", false, "full-size runs (default: quick mode)")
		list        = flag.Bool("list", false, "list available experiments")
		csvDir      = flag.String("csv", "", "also write each table as CSV into this directory")
		quiet       = flag.Bool("q", false, "suppress progress logging")
		workers     = flag.Int("workers", 0, "worker pool size for runs within an experiment (0 = GOMAXPROCS, 1 = serial)")
		par         = flag.Bool("par", false, "run the selected experiments themselves concurrently (tables are buffered and printed in order)")
		metricsAddr = flag.String("metrics-addr", "", "serve the lab's live JSON metrics and pprof on this address while experiments run")
		metricsJSON = flag.String("metrics-json", "", "write the final telemetry snapshot to this file when done")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		return
	}

	logw := os.Stderr
	lab := experiments.NewLab(!*full, logw)
	lab.Workers = *workers
	if *quiet {
		lab.Log = nil
	}
	if *metricsAddr != "" {
		msrv, maddr, err := telemetry.Serve(*metricsAddr, lab.Metrics)
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (pprof at /debug/pprof/)\n", maddr)
	}
	if *metricsJSON != "" {
		defer func() {
			if err := lifecycle.WriteAtomic(*metricsJSON, lab.Metrics.Snapshot().WriteJSON); err != nil {
				log.Fatalf("telemetry dump: %v", err)
			}
		}()
	}

	var todo []experiments.Experiment
	if *exp == "all" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				log.Fatalf("unknown experiment %q (use -list)", id)
			}
			todo = append(todo, e)
		}
	}

	emit := func(e experiments.Experiment, tables []*experiments.Table) {
		for i, t := range tables {
			t.Render(os.Stdout)
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					log.Fatal(err)
				}
				path := filepath.Join(*csvDir, fmt.Sprintf("%s_%d.csv", e.ID, i))
				if err := lifecycle.WriteAtomic(path, t.CSV); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	if *par {
		// Run whole experiments concurrently on the shared lab (its caches
		// and the run harness are concurrency-safe); tables are buffered and
		// rendered afterwards in the order the experiments were requested.
		results := harness.Map(len(todo), runtime.GOMAXPROCS(0), func(i int) []*experiments.Table {
			fmt.Fprintf(os.Stderr, "--- running %s: %s ---\n", todo[i].ID, todo[i].Title)
			return todo[i].Run(lab)
		})
		for i, tables := range results {
			emit(todo[i], tables)
		}
		return
	}
	for _, e := range todo {
		fmt.Fprintf(os.Stderr, "\n--- running %s: %s ---\n", e.ID, e.Title)
		emit(e, e.Run(lab))
	}
}
