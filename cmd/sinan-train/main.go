// Command sinan-train fits Sinan's hybrid model (latency CNN + violation
// Boosted Trees) on a dataset collected with sinan-collect, reports the
// accuracy metrics of Tables 2–3, and writes the model to disk.
//
// Example:
//
//	sinan-train -data hotel.ds -qos 200 -out hotel.model
//
// The output is a checksummed artifact envelope (magic, manifest with dims
// fingerprint and SHA-256 digest, payload) written atomically — a crashed
// or interrupted run leaves the previous file intact, never a torn one.
// It is the only model file format: sinan-serve, sinan-run and sinan-explain
// read it and refuse anything else. With -registry the model is additionally
// published as the next version of an on-disk registry (and marked CURRENT),
// where sinan-serve's -model-dir picks it up:
//
//	sinan-train -data hotel.ds -qos 200 -registry /var/sinan/models
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/lifecycle"
	"sinan/internal/nn"
)

func main() {
	var (
		data     = flag.String("data", "dataset.bin", "input dataset path")
		qos      = flag.Float64("qos", 200, "QoS target in ms (200 hotel, 500 social)")
		epochs   = flag.Int("epochs", 12, "CNN training epochs")
		lr       = flag.Float64("lr", 0.01, "CNN learning rate")
		batch    = flag.Int("batch", 256, "CNN batch size")
		latent   = flag.Int("latent", 32, "latent Lf width")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("out", "sinan.model", "output model artifact path")
		registry = flag.String("registry", "", "also publish into this model-registry directory and mark CURRENT (empty = disabled)")
		keep     = flag.Int("keep", 0, "registry retention: versions to keep (0 = default)")
		note     = flag.String("note", "sinan-train", "provenance note recorded in the artifact manifest")
		kind     = flag.String("model", "cnn", "latency model for comparison runs: cnn | mlp | lstm")
		verbose  = flag.Bool("v", false, "log per-epoch training loss")
	)
	flag.Parse()

	ds, err := dataset.LoadFile(*data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dataset: %d samples, %.1f%% violations, dims %+v\n",
		ds.Len(), 100*ds.ViolationRate(), ds.D)

	if *kind != "cnn" {
		// Baseline comparison path: train the requested regressor alone and
		// report RMSE (Table 2); no BT stage (it needs the CNN latent).
		var model nn.Regressor
		rng := rand.New(rand.NewSource(*seed))
		switch *kind {
		case "mlp":
			model = nn.NewMLP(rng, ds.D)
		case "lstm":
			model = nn.NewLSTMModel(rng, ds.D)
		default:
			log.Fatalf("unknown model %q", *kind)
		}
		train, val := ds.Split(0.9, *seed)
		cfg := nn.TrainConfig{Epochs: *epochs, Batch: *batch, LR: *lr, QoSMS: *qos, Seed: *seed}
		if *verbose {
			cfg.Log = os.Stderr
		}
		tm := nn.Train(model, train.Inputs(), train.Targets(), cfg)
		fmt.Printf("%s: train RMSE %.1f ms, val RMSE %.1f ms, size %.0f KB\n",
			*kind,
			tm.RMSE(train.Inputs(), train.Targets()),
			tm.RMSE(val.Inputs(), val.Targets()),
			nn.ModelSizeKB(model.Params()))
		return
	}

	opts := core.TrainOptions{Seed: *seed, Epochs: *epochs, Batch: *batch, LR: *lr, Latent: *latent}
	if *verbose {
		opts.Log = os.Stderr
	}
	m, rep := core.TrainHybrid(ds, *qos, opts)
	fmt.Printf("CNN : train RMSE %.1f ms, val RMSE %.1f ms, size %.0f KB\n",
		rep.TrainRMSE, rep.ValRMSE, rep.CNNSizeKB)
	fmt.Printf("BT  : train acc %.1f%%, val acc %.1f%%, %d trees, val FPR %.1f%% FNR %.1f%%\n",
		100*rep.TrainAcc, 100*rep.ValAcc, rep.NumTrees, 100*rep.ValFPR, 100*rep.ValFNR)
	fmt.Printf("thresholds: pd=%.3f pu=%.3f\n", m.Pd, m.Pu)

	man := lifecycle.Manifest{
		Note:          *note,
		Samples:       ds.Len(),
		TrainedAtUnix: time.Now().Unix(),
	}
	written, err := lifecycle.WriteFile(*out, m, man)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote artifact %s (sha256 %.12s…, payload %d bytes)\n",
		*out, written.SHA256, written.PayloadLen)
	if *registry != "" {
		reg, err := lifecycle.OpenRegistry(*registry, *keep)
		if err != nil {
			log.Fatalf("opening registry: %v", err)
		}
		pub, err := reg.Put(m, man)
		if err != nil {
			log.Fatalf("publishing to registry: %v", err)
		}
		if err := reg.SetCurrent(pub.Version); err != nil {
			log.Fatalf("marking current: %v", err)
		}
		fmt.Printf("published v%d to %s (CURRENT)\n", pub.Version, *registry)
	}
}
