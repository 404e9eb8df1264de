package experiments

import (
	"fmt"
	"math/rand"

	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// Fig4 reproduces the multi-task NN study (Fig. 4): a single network
// jointly predicting next-interval latency and future violation probability
// considerably overpredicts tail latency, because of the semantic gap
// between the bounded violation probability and the unbounded latency.
// Sinan's two-stage CNN (trained on latency alone) does not share the bias.
func Fig4(l *Lab) []*Table {
	ds := l.SocialDataset()
	train, val := ds.Split(0.9, 4)
	d := ds.D

	// Multi-task baseline: shared trunk, latency head + violation head,
	// trained jointly.
	mt := nn.NewMultiTaskNN(rand.New(rand.NewSource(4)), d, 32, ds.K)
	trIn := train.Inputs()
	trY := train.Targets()
	norm := nn.FitNormalizer(trIn, d)
	var trNorm, vNorm, bin nn.Inputs
	norm.ApplyInto(&trNorm, trIn, d)
	const yScale = 0.01
	yv := trY.Clone()
	tensor.ScaleInPlace(yv, yScale)
	vlabels := tensor.New(train.Len(), ds.K)
	for i := 0; i < train.Len(); i++ {
		if train.YViol[i] {
			for k := 0; k < ds.K; k++ {
				vlabels.Set(1, i, k)
			}
		}
	}
	latLoss := nn.ScaledMSE{Knee: 500 * yScale, Alpha: 0.01 / yScale}
	opt := &nn.SGD{LR: 0.01, Momentum: 0.9}
	rng := rand.New(rand.NewSource(5))
	epochs := l.scaleInt(8, 12)
	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}
	const batch = 256
	ctx := nn.NewContext()
	var dlat, dlog *tensor.Dense
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for s := 0; s < len(idx); s += batch {
			end := s + batch
			if end > len(idx) {
				end = len(idx)
			}
			bidx := idx[s:end]
			trNorm.GatherInto(&bin, bidx)
			by := tensor.New(len(bidx), d.M)
			bv := tensor.New(len(bidx), ds.K)
			for k, i := range bidx {
				copy(by.Data[k*d.M:(k+1)*d.M], yv.Data[i*d.M:(i+1)*d.M])
				copy(bv.Data[k*ds.K:(k+1)*ds.K], vlabels.Data[i*ds.K:(i+1)*ds.K])
			}
			lat, logits := mt.Forward(ctx, bin)
			_, dlat = latLoss.Compute(dlat, lat, by)
			_, dlog = nn.BCEWithLogits{}.Compute(dlog, logits, bv)
			// The joint objective weights both tasks; the classification
			// head's gradients flow into the shared trunk, which is exactly
			// the semantic interference the paper attributes the latency
			// overprediction to.
			tensor.ScaleInPlace(dlog, 5)
			mt.Backward(ctx, dlat, dlog)
			ctx.FlushGrads(mt.Params())
			nn.ClipGrads(mt.Params(), 5)
			opt.Step(mt.Params())
		}
	}

	// Evaluate bias on the validation set against the two-stage CNN.
	_, rep := l.SocialModel()
	sm, _ := l.SocialModel()
	vIn := val.Inputs()
	norm.ApplyInto(&vNorm, vIn, d)
	mtPred, _ := mt.Forward(ctx, vNorm)
	cnnPred, _ := sm.Lat.PredictWithLatent(vIn)

	// Bias is evaluated on the sub-QoS region — the operating range the
	// scheduler's decisions live in, where the φ-scaled CNN is calibrated.
	var mtBias, cnnBias, truthMean float64
	n := 0
	for i := 0; i < val.Len(); i++ {
		truth := val.YLat[i*d.M+d.M-1]
		if truth > 500 {
			continue
		}
		truthMean += truth
		mtBias += mtPred.At(i, d.M-1)/yScale - truth
		cnnBias += cnnPred.At(i, d.M-1) - truth
		n++
	}
	truthMean /= float64(n)
	mtBias /= float64(n)
	cnnBias /= float64(n)

	t := &Table{
		Title:  "Fig. 4 — multi-task NN vs two-stage CNN (Social Network validation)",
		Header: []string{"model", "mean p99 bias (ms)", "bias / mean truth"},
		Rows: [][]string{
			{"multi-task NN (joint latency+violation)", f1(mtBias), pct(mtBias / truthMean)},
			{"two-stage CNN (Sinan)", f1(cnnBias), pct(cnnBias / truthMean)},
		},
		Notes: []string{
			fmt.Sprintf("mean true p99: %.1fms; CNN val RMSE %.1fms", truthMean, rep.ValRMSE),
			"the joint model's violation head drags the shared trunk toward overprediction",
		},
	}
	return []*Table{t}
}
