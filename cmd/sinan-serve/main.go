// Command sinan-serve hosts a trained hybrid model as Sinan's prediction
// service (the paper runs the models on a dedicated GPU server the
// centralized scheduler queries each decision interval).
//
// Example:
//
//	sinan-serve -model hotel.model -addr :9090
//
// The service answers Predict, PredictShared, Meta and Stats in length-prefixed
// frames over TCP; schedulers connect with predsvc.Dial and use the remote model
// exactly like a local one. Admission control protects the server under
// overload: -max-active bounds concurrent predictions (0 = GOMAXPROCS,
// negative disables the gate) and -max-queue bounds the LIFO burst queue
// (0 = 4x max-active, negative = no queue). Excess load is shed with a
// typed overload error; requests whose propagated deadline expires while
// queued are dropped unexecuted.
//
// With -metrics-addr the server also exposes its telemetry registry as live
// JSON — admission outcomes, the Predict RPC latency histogram (p50/p95/
// p99/p99.9), and the in-flight gauge — at /metrics (also /debug/vars) plus
// the standard pprof handlers at /debug/pprof/:
//
//	sinan-serve -model hotel.model -addr :9090 -metrics-addr :9091
//	curl -s localhost:9091/metrics
//
// Model lifecycle: the server also answers UpdateModel and Rollback
// (predsvc.Client has both), so operators can hot-swap models without a restart —
// every install is versioned and rollback-able. -model-dir serves the
// CURRENT version of a model registry (written by sinan-train -registry)
// instead of a single file; -model takes an artifact written by
// sinan-train. -holdout arms the validation gate: candidates pushed
// over UpdateModel replay the pinned holdout and are rejected unless their
// RMSE is within the gate's margin of the live model's. -shadow-intervals
// makes accepted candidates shadow-score that many live Predict calls
// (predictions compared but not served) before promotion:
//
//	sinan-serve -model-dir /var/sinan/models -holdout hotel.ds -shadow-intervals 32
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/lifecycle"
	"sinan/internal/nn"
	"sinan/internal/predsvc"
	"sinan/internal/telemetry"
)

func main() {
	var (
		model       = flag.String("model", "sinan.model", "hybrid model path (an artifact written by sinan-train)")
		modelDir    = flag.String("model-dir", "", "serve the CURRENT version of this model-registry directory instead of -model (empty = disabled)")
		holdout     = flag.String("holdout", "", "dataset path arming the UpdateModel validation gate (empty = accept any decodable candidate)")
		shadowIvals = flag.Int("shadow-intervals", 0, "live Predict calls a gated candidate shadow-scores before promotion (0 = promote immediately)")
		addr        = flag.String("addr", "127.0.0.1:9090", "listen address")
		maxActive   = flag.Int("max-active", 0, "max concurrent predictions (0 = GOMAXPROCS, <0 = no admission control)")
		maxQueue    = flag.Int("max-queue", 0, "max queued predictions (0 = 4x max-active, <0 = no queue)")
		metricsAddr = flag.String("metrics-addr", "", "serve live JSON metrics and pprof on this address (empty = disabled)")
	)
	flag.Parse()

	var (
		m      *core.HybridModel
		man    lifecycle.Manifest
		source = *model
		err    error
	)
	if *modelDir != "" {
		reg, rerr := lifecycle.OpenRegistry(*modelDir, 0)
		if rerr != nil {
			log.Fatalf("opening model registry: %v", rerr)
		}
		m, man, err = reg.LoadCurrent()
		source = *modelDir
	} else {
		m, man, err = lifecycle.ReadFile(*model)
	}
	if err != nil {
		log.Fatalf("loading model: %v", err)
	}

	opts := predsvc.ServiceOptions{
		MaxConcurrent: *maxActive,
		MaxQueue:      *maxQueue,
		ShadowCalls:   *shadowIvals,
	}
	if *holdout != "" {
		gate, gerr := holdoutGate(*holdout, m.D)
		if gerr != nil {
			log.Fatal(gerr)
		}
		opts.Guard = gate
	}
	srv, svc, err := predsvc.ListenAndServeWith(*addr, m, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "serving %s on %s (QoS %.0fms, pd=%.3f pu=%.3f)\n",
		source, srv.Addr(), m.QoSMS, m.Pd, m.Pu)
	fmt.Fprintf(os.Stderr, "artifact v%d: sha256 %.12s…, %d samples, note %q\n",
		man.Version, man.SHA256, man.Samples, man.Note)
	if opts.Guard != nil {
		fmt.Fprintf(os.Stderr, "lifecycle gate armed (%s); shadow intervals: %d\n", *holdout, *shadowIvals)
	}
	if *metricsAddr != "" {
		msrv, maddr, err := telemetry.Serve(*metricsAddr, svc.Metrics())
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (pprof at /debug/pprof/)\n", maddr)
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
	// Graceful: stop accepting, drain in-flight predictions, then exit —
	// reporting what the admission gate did over the server's lifetime.
	srv.Close()
	st := svc.StatsSnapshot()
	fmt.Fprintf(os.Stderr, "admission: accepted=%d shed=%d expired=%d peak-queue=%d\n",
		st.Accepted, st.Shed, st.Expired, st.PeakQueue)
}

// holdoutGate arms the validation gate on the dataset at path. A holdout
// whose dims differ from the served model's d would make the gate refuse
// every candidate, so it is refused at start-up, naming both.
func holdoutGate(path string, d nn.Dims) (*lifecycle.Gate, error) {
	ds, err := dataset.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("loading holdout: %w", err)
	}
	if ds.D != d {
		return nil, fmt.Errorf("holdout %s has dims %+v but the served model has %+v", path, ds.D, d)
	}
	gate, err := lifecycle.NewGate(lifecycle.GateConfig{Holdout: ds})
	if err != nil {
		return nil, fmt.Errorf("building validation gate: %w", err)
	}
	return gate, nil
}
