package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sinan/internal/boost"
	"sinan/internal/nn"
)

// Ablation isolates the design choices DESIGN.md calls out, on the Social
// Network dataset:
//
//   - A1: the φ-scaled loss (Eq. 2) against plain MSE — φ should win in the
//     sub-QoS range that scheduling decisions live in, at the cost of
//     accuracy on deep-violation spikes it deliberately discounts.
//   - A2: Boosted Trees on the CNN latent Lf (the paper's design) against
//     the same classifier on raw flattened model inputs — the latent is an
//     order of magnitude smaller and at least as accurate.
//   - A3: the prospective-utilization features added to the BT input in
//     this implementation — they make the classifier sensitive to the
//     candidate allocation (without them, scale-up candidates cannot lower
//     the predicted violation probability).
func Ablation(l *Lab) []*Table {
	ds := l.SocialDataset()
	const qos = 500.0
	train, val := ds.Split(0.9, 77)
	trIn, vaIn := train.Inputs(), val.Inputs()
	epochs := l.scaleInt(8, 12)

	// --- A1: loss function ---
	lossTab := &Table{
		Title:  "Ablation A1 — φ-scaled loss vs plain MSE (Social Network CNN)",
		Header: []string{"loss", "val RMSE sub-QoS (ms)", "val RMSE full (ms)"},
		Notes: []string{
			"sub-QoS RMSE is the accuracy the scheduler's latency filter uses",
			"φ discounts deep violations by design, trading full-range RMSE for boundary accuracy",
		},
	}
	subVal := val.FilterByP99(qos)
	lossCfgs := []struct {
		name  string
		qosMS float64 // 0 disables φ-scaling in nn.Train
	}{
		{"φ-scaled (Eq. 2)", qos},
		{"plain MSE", 0},
	}
	// The two loss configurations train independent models from the same
	// initialisation, so they fan out on the lab pool.
	lossTab.Rows = pmap(l, len(lossCfgs), func(i int) []string {
		cfg := lossCfgs[i]
		model := nn.NewLatencyCNN(rand.New(rand.NewSource(77)), ds.D, 32)
		tm := nn.Train(model, trIn, train.Targets(), nn.TrainConfig{
			Epochs: epochs, Batch: 256, LR: 0.01, QoSMS: cfg.qosMS, Seed: 77,
		})
		l.logf("ablation A1: %s done", cfg.name)
		return []string{
			cfg.name,
			f1(tm.RMSE(subVal.Inputs(), subVal.Targets())),
			f1(tm.RMSE(vaIn, val.Targets())),
		}
	})

	// --- A2/A3: violation-predictor feature sets ---
	m, _ := l.SocialModel()
	_, trainLatent := m.Lat.PredictWithLatent(trIn)
	_, valLatent := m.Lat.PredictWithLatent(vaIn)

	d := ds.D
	rhRow := d.F * d.N * d.T
	buildRaw := func(sub *trainSplit) ([][]float64, []bool) {
		// Raw features: last-timestep resource snapshot (F·N) ⊕ RC.
		X := make([][]float64, sub.n)
		for i := 0; i < sub.n; i++ {
			row := make([]float64, d.F*d.N+d.N)
			for f := 0; f < d.F; f++ {
				for tier := 0; tier < d.N; tier++ {
					row[f*d.N+tier] = sub.rh[i*rhRow+(f*d.N+tier)*d.T+d.T-1]
				}
			}
			copy(row[d.F*d.N:], sub.rc[i*d.N:(i+1)*d.N])
			X[i] = row
		}
		return X, sub.viol
	}
	buildLatent := func(sub *trainSplit, latent []float64, width int, withUtil bool) ([][]float64, []bool) {
		X := make([][]float64, sub.n)
		for i := 0; i < sub.n; i++ {
			size := width + d.N
			if withUtil {
				size += d.N
			}
			row := make([]float64, size)
			copy(row, latent[i*width:(i+1)*width])
			copy(row[width:], sub.rc[i*d.N:(i+1)*d.N])
			if withUtil {
				for tier := 0; tier < d.N; tier++ {
					usage := sub.rh[i*rhRow+tier*d.T+d.T-1] // cpu channel
					alloc := sub.rc[i*d.N+tier]
					if alloc < 1e-9 {
						alloc = 1e-9
					}
					row[width+d.N+tier] = usage / alloc
				}
			}
			X[i] = row
		}
		return X, sub.viol
	}
	trSplit := &trainSplit{n: train.Len(), rh: trIn.RH.Data, rc: train.RC, viol: train.YViol}
	vaSplit := &trainSplit{n: val.Len(), rh: vaIn.RH.Data, rc: val.RC, viol: val.YViol}
	width := trainLatent.Shape[1]

	btTab := &Table{
		Title: "Ablation A2/A3 — violation-predictor input features (Social Network)",
		Header: []string{"features", "dims", "val acc", "val FNR",
			"train time (s)"},
		Notes: []string{
			"all variants: same boosted-trees configuration, balanced class weights",
		},
	}
	posW := func(y []bool) float64 {
		pos := 0
		for _, v := range y {
			if v {
				pos++
			}
		}
		if pos == 0 || pos == len(y) {
			return 1
		}
		return float64(len(y)-pos) / float64(pos)
	}
	variants := []struct {
		name  string
		build func(*trainSplit, []float64) ([][]float64, []bool)
	}{
		{"raw last-step stats ⊕ RC", func(s *trainSplit, _ []float64) ([][]float64, []bool) {
			return buildRaw(s)
		}},
		{"latent Lf ⊕ RC (paper)", func(s *trainSplit, lat []float64) ([][]float64, []bool) {
			return buildLatent(s, lat, width, false)
		}},
		{"latent Lf ⊕ RC ⊕ util (ours)", func(s *trainSplit, lat []float64) ([][]float64, []bool) {
			return buildLatent(s, lat, width, true)
		}},
	}
	// Latents were computed once above; each BT variant trains its own
	// forest, so the three variants fan out on the lab pool.
	btTab.Rows = pmap(l, len(variants), func(i int) []string {
		variant := variants[i]
		trX, trY := variant.build(trSplit, trainLatent.Data)
		vaX, vaY := variant.build(vaSplit, valLatent.Data)
		start := time.Now()
		bt := boost.Train(trX, trY, boost.Config{
			NumTrees: 150, MaxDepth: 5, EarlyStopping: 25, PosWeight: posW(trY),
		}, vaX, vaY)
		dur := time.Since(start).Seconds()
		_, fnr := bt.Confusion(vaX, vaY)
		l.logf("ablation A2/A3: %s done", variant.name)
		return []string{
			variant.name,
			fmt.Sprintf("%d", len(trX[0])),
			pct(1 - bt.ErrorRate(vaX, vaY)),
			pct(fnr),
			f1(dur),
		}
	})
	// --- Fig. 7 companion: the scale function φ at different α ---
	phiTab := &Table{
		Title:  "Fig. 7 — scale function φ(x) with knee t=100 and varying α (Eq. 2)",
		Header: []string{"x", "α=0.005", "α=0.01", "α=0.02"},
		Notes:  []string{"φ is identity below the knee and saturates above it, bounding spike loss"},
	}
	for _, x := range []float64{0, 50, 100, 150, 200, 300, 500, 1000} {
		phiTab.Rows = append(phiTab.Rows, []string{
			f0(x),
			f1(nn.Scale(x, 100, 0.005)),
			f1(nn.Scale(x, 100, 0.01)),
			f1(nn.Scale(x, 100, 0.02)),
		})
	}
	return []*Table{lossTab, btTab, phiTab}
}

// trainSplit is a light view over a dataset split's raw slices.
type trainSplit struct {
	n    int
	rh   []float64
	rc   []float64
	viol []bool
}
