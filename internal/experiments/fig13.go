package experiments

import (
	"fmt"

	"sinan/internal/apps"
	"sinan/internal/nn"
)

// Fig13 reproduces the incremental-retraining study (Fig. 13): the Social
// Network model trained on the local cluster is fine-tuned — with a 100×
// smaller learning rate, preserving the learnt weights — for three
// deployment changes: (a) a new server platform (GCE), (b) a different
// scale-out factor (2× replicas for stateless tiers), and (c) an
// application modification (AES encryption of posts). Validation RMSE is
// reported as a function of the number of newly-collected samples; a small
// number of samples recovers most of the accuracy, far cheaper than
// retraining from scratch.
func Fig13(l *Lab) []*Table {
	baseModel, baseRep := l.SocialModel()

	scenarios := []struct {
		name string
		app  *apps.App
		seed int64
	}{
		{"GCE platform", apps.NewSocialNetwork(apps.WithPlatform(apps.GCE)), 81},
		{"2x replicas", apps.NewSocialNetwork(apps.WithReplicaMult(2)), 82},
		{"AES encryption", apps.NewSocialNetwork(apps.WithEncryption()), 83},
	}
	sampleCounts := []int{0, 500, 1000, 2000, 4000}
	if l.Quick {
		sampleCounts = []int{0, 400, 1200}
	}

	// Each scenario is independent (own collection pool, own fine-tuning
	// sweep from a cloned base model), so scenarios fan out on the lab pool.
	tables := pmap(l, len(scenarios), func(si int) *Table {
		sc := scenarios[si]
		// Collect a pool of new-environment samples once; fine-tuning sweeps
		// prefixes of it. A fixed validation slice measures adaptation.
		need := sampleCounts[len(sampleCounts)-1]
		poolSecs := float64(need) * 1.35
		if poolSecs < 600 {
			poolSecs = 600
		}
		pool := l.CollectApp(sc.app, 50, 450, poolSecs, sc.seed)
		newTrain, newVal := pool.Split(0.8, sc.seed)

		t := &Table{
			Title:  "Fig. 13 — fine-tuning for: " + sc.name,
			Header: []string{"new samples", "train RMSE (ms)", "val RMSE (ms)"},
			Notes: []string{
				fmt.Sprintf("original model val RMSE on its own platform: %.1fms", baseRep.ValRMSE),
				"fine-tuning uses lr = base lr / 100 (Sec. 5.4), preserving learnt weights",
			},
		}
		valIn, valY := newVal.Inputs(), newVal.Targets()
		for _, n := range sampleCounts {
			// Fresh copy of the base model for each budget, so every sweep
			// point starts from identical base weights.
			tm := baseModel.Lat.Clone()
			trainRMSE := 0.0
			if n > 0 {
				if n > newTrain.Len() {
					n = newTrain.Len()
				}
				sub := newTrain.Select(firstN(n))
				subIn := sub.Inputs()
				tm.FineTune(subIn, sub.Targets(), nn.TrainConfig{
					Epochs: l.scaleInt(8, 15), Batch: 128, LR: 0.0001,
					QoSMS: 500, Seed: sc.seed,
				})
				trainRMSE = tm.RMSE(subIn, sub.Targets())
			}
			valRMSE := tm.RMSE(valIn, valY)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n), f1(trainRMSE), f1(valRMSE),
			})
			l.logf("fig13 %s: n=%d valRMSE=%.1f", sc.name, n, valRMSE)
		}
		return t
	})
	return tables
}
