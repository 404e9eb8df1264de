// Distributed deployment: the paper's system architecture (Sec. 4.1) splits
// the centralized scheduler from a prediction service that hosts the ML
// models on a separate server. This example trains a model, serves it over
// loopback TCP, and runs the online scheduler against the REMOTE model —
// verifying the managed run behaves identically to using the model
// in-process.
//
// Run with: go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"sinan"
	"sinan/internal/apps"
	"sinan/internal/core"
	"sinan/internal/predsvc"
)

func main() {
	app := apps.NewHotelReservation()
	fmt.Println("training a model for the prediction service (one-off)...")
	ds := sinan.Collect(app, sinan.CollectOptions{Duration: 1500, Seed: 21})
	model, rep := sinan.Train(ds, app.QoSMS, sinan.TrainOptions{Seed: 21, Epochs: 10})
	fmt.Printf("model ready: CNN val RMSE %.1fms\n", rep.ValRMSE)

	// Host the model on a prediction service (ephemeral port).
	srv, svc, err := predsvc.ListenAndServe("127.0.0.1:0", model)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close() // graceful: drains in-flight predictions
	fmt.Printf("prediction service listening on %s\n", srv.Addr())

	// The scheduler dials the service and uses the remote model through the
	// same Predictor interface as a local one. The client retries, redials,
	// and circuit-breaks on RPC failure; if the service stays down the
	// scheduler degrades to its conservative fallback instead of crashing.
	client, err := predsvc.Dial(srv.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	run := func(p sinan.Policy) *sinan.Result {
		return sinan.Manage(app, p, sinan.RunOptions{
			Load: sinan.Constant(2000), Duration: 90, Seed: 5, Warmup: 15,
		})
	}
	remote := run(core.NewScheduler(app, client, core.SchedulerOptions{}))
	local := run(core.NewScheduler(app, model, core.SchedulerOptions{}))

	fmt.Printf("\n%-22s %-12s %-10s\n", "scheduler", "P(meet QoS)", "mean CPU")
	fmt.Printf("%-22s %-12.3f %-10.1f\n", "remote model (RPC)", remote.Meter.MeetProb(), remote.Meter.MeanAlloc())
	fmt.Printf("%-22s %-12.3f %-10.1f\n", "local model", local.Meter.MeetProb(), local.Meter.MeanAlloc())
	if remote.Meter.MeanAlloc() != local.Meter.MeanAlloc() {
		fmt.Println("(tiny differences are possible: the remote path serialises float64s exactly, so results should match)")
	} else {
		fmt.Println("identical decisions through the remote and local model paths.")
	}

	// Incremental retraining in production: push an adapted model into the
	// running service without restarting it.
	fmt.Println("\nretraining incrementally and hot-swapping the served model...")
	newData := sinan.Collect(app, sinan.CollectOptions{Duration: 400, Seed: 22})
	adapted := model.Retrain(newData, core.RetrainOptions{Epochs: 5, Seed: 22})
	svc.Swap(adapted)
	fmt.Println("prediction service now serves the fine-tuned model.")
}
