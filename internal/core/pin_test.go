//go:build amd64 && !amd64.v3

package core

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"sinan/internal/dataset"
	"sinan/internal/nn"
	"sinan/internal/runner"
)

// A real-model Sinan trajectory: every field of every TraceRow of the 180
// managed seconds TestSinanMeetsQoSAndSavesCPU runs on the Hotel model it
// trains, plus the completed and dropped totals. Recorded at commit d791db7,
// before the scheduler was rebuilt around enumerate and choose; do not
// re-record it to make a change pass. Build-constrained like
// TestTrainHybridPinned because the trajectory hangs on trained weights.
func init() {
	pinSinanRun = func(t *testing.T, res *runner.Result) {
		h := fnv.New64a()
		for _, r := range res.Trace {
			deg := 0.0
			if r.Degraded {
				deg = 1
			}
			pinFloats(h, r.Time, r.RPS, r.P99MS, float64(r.Drops), r.PredP99MS, r.PViol, r.Total, deg, float64(r.Brownout))
			pinFloats(h, r.Alloc...)
		}
		pinFloats(h, float64(res.Completed), float64(res.Dropped))
		const want uint64 = 0xe9a3df4f9896e5a2
		if got := h.Sum64(); got != want {
			t.Errorf("managed-run trace digest %#016x, want %#016x", got, want)
		}
	}
}

// pinDataset is a seeded synthetic dataset: latency rises when load outruns
// the allocation, and about a third of the samples are violations.
func pinDataset(n int) *dataset.Dataset {
	d := nn.Dims{N: 6, T: 5, F: 6, M: 5}
	rng := rand.New(rand.NewSource(81))
	ds := dataset.New(d, 5)
	rh := make([]float64, d.F*d.N*d.T)
	lh := make([]float64, d.T*d.M)
	rc := make([]float64, d.N)
	ylat := make([]float64, d.M)
	for i := 0; i < n; i++ {
		load := 0.2 + 0.8*rng.Float64()
		for j := range rh {
			rh[j] = load*float64(j%d.F+1) + 0.1*rng.NormFloat64()
		}
		alloc := 0.0
		for j := range rc {
			rc[j] = 0.2 + 3*rng.Float64()
			alloc += rc[j]
		}
		base := 20 + 400*math.Max(0, load*8-alloc*0.8)
		for j := range lh {
			lh[j] = base * (0.8 + 0.05*float64(j%d.M))
		}
		for j := range ylat {
			ylat[j] = base * (0.85 + 0.05*float64(j)) * (1 + 0.05*rng.NormFloat64())
		}
		ds.Append(rh, lh, rc, ylat, ylat[d.M-1] > 200)
	}
	return ds
}

// The whole of what TrainHybrid produces is pinned bit for bit: CNN weights,
// every node of every boosted tree, the thresholds and the report. The
// digest was recorded at commit a0976de, before the blocked GEMM kernels,
// the shard gather buffers and the single-pass evaluation in TrainHybrid
// replaced the code it was recorded on. Do not re-record it to make a change
// pass.
//
// amd64 without GOAMD64=v3 only: where the compiler fuses multiply-adds the
// same source legitimately gives other bits. See nn.TestTrainedWeightsPinned
// and the == differential tests in internal/tensor, which are the portable
// pin.
func TestTrainHybridPinned(t *testing.T) {
	m, rep := TrainHybrid(pinDataset(700), 200, TrainOptions{Seed: 3, Epochs: 2})

	h := fnv.New64a()
	floats := func(vs ...float64) { pinFloats(h, vs...) }
	for _, p := range m.Lat.Model.Params() {
		floats(p.W.Data...)
	}
	floats(m.Viol.Base)
	for _, tr := range m.Viol.Trees {
		for _, nd := range tr.Nodes {
			floats(float64(nd.Feature), nd.Threshold, float64(nd.Left), float64(nd.Right), nd.Weight)
		}
	}
	floats(rep.TrainRMSE, rep.ValRMSE, rep.ValRMSESubQoS, rep.CNNSizeKB,
		rep.TrainAcc, rep.ValAcc, rep.ValFPR, rep.ValFNR,
		float64(rep.NumTrees), float64(rep.TrainSamples), float64(rep.ValSamps),
		m.RMSEValid, m.Pd, m.Pu)

	const want = 0x27454d42f35984f5
	if got := h.Sum64(); got != want {
		t.Fatalf("TrainHybrid digest %#016x, want %#016x (report %+v)", got, want, rep)
	}
	if rep.NumTrees < 2 || rep.ValSamps != 70 {
		t.Fatalf("pin dataset no longer exercises the trees or the split: %+v", rep)
	}

	// The payload's bytes are a function of the model, so they are pinned
	// too: at every -cpu count and under -tags purego (check.sh runs both).
	payload, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	const wantPayload = "72fa41d9e97db118c7442f207501502e1c0603fd9738b4ecc747105f46879f40"
	if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != wantPayload {
		t.Fatalf("encoded payload sha256 %s, want %s", got, wantPayload)
	}
}
