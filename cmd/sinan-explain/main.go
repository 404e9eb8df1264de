// Command sinan-explain runs the LIME-style interpretability analysis of
// Sec. 5.6 on a trained model and its dataset: it ranks tiers by their
// influence on the predicted tail latency around QoS-violation samples, and
// optionally drills into one tier's resource channels.
//
// Example:
//
//	sinan-explain -model social.model -data social.ds -app social -tier graph-Redis
package main

import (
	"flag"
	"fmt"
	"log"

	"sinan/internal/apps"
	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/explain"
	"sinan/internal/lifecycle"
	"sinan/internal/nn"
	"sinan/internal/tensor"
)

type modelAdapter struct{ m *core.HybridModel }

func (a modelAdapter) Predict(in nn.Inputs) *tensor.Dense { return a.m.Lat.Predict(in) }

func main() {
	var (
		modelPath = flag.String("model", "sinan.model", "hybrid model path")
		dataPath  = flag.String("data", "dataset.gob", "dataset the model was trained on")
		appName   = flag.String("app", "social", "application: hotel | social")
		tier      = flag.String("tier", "", "tier to drill into (resource channels)")
		topN      = flag.Int("top", 5, "tiers to list")
		samples   = flag.Int("samples", 32, "violation samples to perturb")
	)
	flag.Parse()

	m, ds, err := load(*modelPath, *dataPath)
	if err != nil {
		log.Fatal(err)
	}
	var app *apps.App
	switch *appName {
	case "hotel":
		app = apps.NewHotelReservation()
	case "social":
		app = apps.NewSocialNetwork()
	default:
		log.Fatalf("unknown app %q", *appName)
	}
	if len(app.Tiers) != ds.D.N {
		log.Fatalf("dataset has %d tiers but %s has %d", ds.D.N, app.Name, len(app.Tiers))
	}

	// Perturb samples drawn from violation intervals.
	var idx []int
	for i, v := range ds.YViol {
		if v {
			idx = append(idx, i)
		}
		if len(idx) == *samples {
			break
		}
	}
	if len(idx) == 0 {
		log.Fatal("dataset contains no violation samples to explain")
	}
	sub := ds.Select(idx).Inputs()
	model := modelAdapter{m}

	fmt.Printf("top-%d tiers by influence on predicted p99 (%d violation samples):\n", *topN, len(idx))
	ranking := explain.TierImportance(model, sub, ds.D, app.TierNames())
	for i := 0; i < *topN && i < len(ranking); i++ {
		fmt.Printf("  %2d. %-24s %.1f\n", i+1, ranking[i].Name, ranking[i].Weight)
	}

	if *tier != "" {
		tierIdx := -1
		for i, name := range app.TierNames() {
			if name == *tier {
				tierIdx = i
			}
		}
		if tierIdx < 0 {
			log.Fatalf("unknown tier %q", *tier)
		}
		channels := []string{"cpu usage", "cpu limit", "rss", "cache", "net rx", "net tx"}
		fmt.Printf("\nresource channels of %s:\n", *tier)
		for i, r := range explain.ResourceImportance(model, sub, ds.D, tierIdx, channels) {
			fmt.Printf("  %2d. %-12s %.1f\n", i+1, r.Name, r.Weight)
		}
	}
}

// load reads the model and the dataset it is explained on. A pair whose dims
// differ is refused here, naming both, instead of failing inside the CNN.
func load(modelPath, dataPath string) (*core.HybridModel, *dataset.Dataset, error) {
	m, _, err := lifecycle.ReadFile(modelPath)
	if err != nil {
		return nil, nil, err
	}
	ds, err := dataset.LoadFile(dataPath)
	if err != nil {
		return nil, nil, err
	}
	if ds.D != m.D {
		return nil, nil, fmt.Errorf("model %s has dims %+v but dataset %s has %+v", modelPath, m.D, dataPath, ds.D)
	}
	return m, ds, nil
}
