package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"sinan/internal/dataset"
	"sinan/internal/nn"
)

// Table2 reproduces the latency-predictor comparison (Table 2): the CNN
// against an MLP and an LSTM on both applications — RMSE, model size, and
// per-batch train/inference speed. The CNN should achieve the lowest RMSE
// with the smallest model, as in the paper.
func Table2(l *Lab) []*Table {
	out := &Table{
		Title: "Table 2 — RMSE, model size, and speed of the three latency predictors",
		Header: []string{"app", "model", "train RMSE (ms)", "val RMSE (ms)",
			"size (KB)", "train ms/batch", "infer ms/batch"},
		Notes: []string{
			"batch size 256; all models trained with SGD and the φ-scaled loss",
			"paper (Table 2): CNN lowest RMSE with smallest model on both apps",
		},
	}
	// Resolve the cached datasets and splits up front, then fan the six
	// (app, architecture) training tasks out on the lab pool. Rows come back
	// in the serial order: app outer, architecture inner.
	type t2env struct {
		name       string
		qos        float64
		dims       nn.Dims
		train, val *dataset.Dataset
	}
	var envs []t2env
	for _, e := range []struct {
		name string
		ds   *dataset.Dataset
		qos  float64
	}{
		{"hotel", l.HotelDataset(), 200},
		{"social", l.SocialDataset(), 500},
	} {
		train, val := e.ds.Split(0.9, 21)
		envs = append(envs, t2env{e.name, e.qos, e.ds.D, train, val})
	}
	archs := []struct {
		name  string
		build func(d nn.Dims, seed int64) nn.Regressor
	}{
		{"MLP", func(d nn.Dims, seed int64) nn.Regressor { return nn.NewMLP(rand.New(rand.NewSource(seed)), d) }},
		{"LSTM", func(d nn.Dims, seed int64) nn.Regressor { return nn.NewLSTMModel(rand.New(rand.NewSource(seed)), d) }},
		{"CNN", func(d nn.Dims, seed int64) nn.Regressor {
			return nn.NewLatencyCNN(rand.New(rand.NewSource(seed)), d, 32)
		}},
	}
	out.Rows = pmap(l, len(envs)*len(archs), func(task int) []string {
		env := envs[task/len(archs)]
		arch := archs[task%len(archs)]
		// The paper tunes each architecture until validation accuracy
		// levels off; we approximate by training each from two seeds and
		// keeping the better initialisation (identical budget per model).
		var model nn.Regressor
		var tm *nn.TrainedModel
		bestVal := 0.0
		var trainDur time.Duration
		trIn, trY := env.train.Inputs(), env.train.Targets()
		vaIn, vaY := env.val.Inputs(), env.val.Targets()
		for _, seed := range []int64{31, 32} {
			cand := arch.build(env.dims, seed)
			start := time.Now()
			ctm := nn.Train(cand, trIn, trY, nn.TrainConfig{
				Epochs: l.epochs(), Batch: 256, LR: 0.01, QoSMS: env.qos, Seed: 77 + seed,
			})
			dur := time.Since(start)
			v := ctm.RMSE(vaIn, vaY)
			if model == nil || v < bestVal {
				model, tm, bestVal, trainDur = cand, ctm, v, dur
			}
		}
		batches := l.epochs() * ((env.train.Len() + 255) / 256)
		trainMSPerBatch := float64(trainDur.Milliseconds()) / float64(batches)

		// Inference speed over one 256-sample batch. Wall-clock columns are
		// indicative: under a loaded pool they include contention.
		probe := env.train.Select(firstN(min(256, env.train.Len())))
		pin := probe.Inputs()
		const reps = 5
		inferStart := time.Now()
		for r := 0; r < reps; r++ {
			tm.PredictWithLatent(pin)
		}
		inferMS := float64(time.Since(inferStart).Milliseconds()) / reps

		l.logf("table2: %s/%s done", env.name, arch.name)
		return []string{
			env.name, arch.name,
			f1(tm.RMSE(trIn, trY)),
			f1(tm.RMSE(vaIn, vaY)),
			f0(nn.ModelSizeKB(model.Params())),
			f1(trainMSPerBatch),
			f1(inferMS),
		}
	})
	return []*Table{out}
}

// Table3 reproduces the Boosted Trees validation (Table 3): accuracy of
// anticipating a QoS violation within the next 5 intervals, tree count,
// and training time, for both applications.
func Table3(l *Lab) []*Table {
	out := &Table{
		Title: "Table 3 — Boosted Trees violation predictor",
		Header: []string{"app", "train acc", "val acc", "val FPR", "val FNR",
			"# trees", "train time (s)"},
		Notes: []string{
			"violation = p99 over QoS (or drops) within the next 5 intervals",
			"paper (Table 3): >94% validation accuracy on both apps",
		},
	}
	type entry struct {
		name string
		rep  func() (repData, float64)
	}
	for _, e := range []entry{
		{"hotel", func() (repData, float64) {
			start := time.Now()
			_, rep := l.HotelModel()
			return repData{rep.TrainAcc, rep.ValAcc, rep.ValFPR, rep.ValFNR, rep.NumTrees}, time.Since(start).Seconds()
		}},
		{"social", func() (repData, float64) {
			start := time.Now()
			_, rep := l.SocialModel()
			return repData{rep.TrainAcc, rep.ValAcc, rep.ValFPR, rep.ValFNR, rep.NumTrees}, time.Since(start).Seconds()
		}},
	} {
		rd, secs := e.rep()
		out.Rows = append(out.Rows, []string{
			e.name, pct(rd.trainAcc), pct(rd.valAcc), pct(rd.fpr), pct(rd.fnr),
			fmt.Sprintf("%d", rd.trees), f1(secs),
		})
	}
	out.Notes = append(out.Notes,
		"train time includes the full hybrid (CNN+BT) when the model was not already cached")
	return []*Table{out}
}

type repData struct {
	trainAcc, valAcc, fpr, fnr float64
	trees                      int
}

func firstN(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
