package explain

import (
	"math"
	"testing"

	"sinan/internal/nn"
	"sinan/internal/tensor"
)

func TestLeastSquaresRecoversLine(t *testing.T) {
	// y = 3·x0 − 2·x1 + 5
	X := [][]float64{}
	y := []float64{}
	for i := 0; i < 50; i++ {
		x0 := float64(i%7) * 0.3
		x1 := float64(i%5) * 0.7
		X = append(X, []float64{x0, x1})
		y = append(y, 3*x0-2*x1+5)
	}
	w := leastSquares(X, y)
	if math.Abs(w[0]-3) > 1e-6 || math.Abs(w[1]-(-2)) > 1e-6 {
		t.Fatalf("weights = %v, want [3 -2]", w)
	}
}

func TestSolvePivoting(t *testing.T) {
	// System requiring a row swap: first pivot is zero.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x := solve(a, b)
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("solve = %v", x)
	}
}

// linearModel is a synthetic predictor whose p99 depends strongly on the
// CPU-usage channel of one designated tier.
type linearModel struct {
	d       nn.Dims
	hotTier int
	hotChan int
}

func (m *linearModel) PredictWithLatent(in nn.Inputs) (*tensor.Dense, *tensor.Dense) {
	b := in.Batch()
	out := tensor.New(b, m.d.M)
	rhRow := m.d.F * m.d.N * m.d.T
	for i := 0; i < b; i++ {
		s := 0.0
		for t := 0; t < m.d.T; t++ {
			s += in.RH.Data[i*rhRow+(m.hotChan*m.d.N+m.hotTier)*m.d.T+t]
		}
		// Weak dependence on everything else.
		weak := 0.0
		for j := 0; j < rhRow; j++ {
			weak += in.RH.Data[i*rhRow+j]
		}
		v := 10*s + 0.01*weak
		for mm := 0; mm < m.d.M; mm++ {
			out.Set(v, i, mm)
		}
	}
	return out, nil
}

func synthSamples(d nn.Dims, n int) nn.Inputs {
	in := nn.Inputs{
		RH: tensor.New(n, d.F, d.N, d.T),
		LH: tensor.New(n, d.T, d.M),
		RC: tensor.New(n, d.N),
	}
	for i := range in.RH.Data {
		in.RH.Data[i] = 1 + 0.1*float64(i%7)
	}
	for i := range in.RC.Data {
		in.RC.Data[i] = 2
	}
	return in
}

func TestTierImportanceFindsCulprit(t *testing.T) {
	d := nn.Dims{N: 5, T: 3, F: 4, M: 5}
	m := &linearModel{d: d, hotTier: 3, hotChan: 1}
	names := []string{"t0", "t1", "t2", "t3", "t4"}
	imp := TierImportance(m, synthSamples(d, 4), d, names)
	if imp[0].Name != "t3" {
		t.Fatalf("top tier = %s, want t3 (got ranking %+v)", imp[0].Name, imp)
	}
	if imp[0].Weight <= imp[1].Weight*2 {
		t.Fatalf("culprit should dominate: %+v", imp[:2])
	}
	if len(imp) != 5 {
		t.Fatalf("ranking covers %d tiers, want 5", len(imp))
	}
}

func TestResourceImportanceFindsChannel(t *testing.T) {
	d := nn.Dims{N: 5, T: 3, F: 4, M: 5}
	m := &linearModel{d: d, hotTier: 3, hotChan: 1}
	chans := []string{"cpu", "limit", "rss", "cache"}
	imp := ResourceImportance(m, synthSamples(d, 4), d, 3, chans)
	if imp[0].Name != "limit" { // channel index 1
		t.Fatalf("top channel = %s, want limit: %+v", imp[0].Name, imp)
	}
}

func TestImportanceOfUninvolvedTierIsSmall(t *testing.T) {
	d := nn.Dims{N: 4, T: 2, F: 3, M: 5}
	m := &linearModel{d: d, hotTier: 0, hotChan: 0}
	imp := TierImportance(m, synthSamples(d, 3), d, []string{"hot", "a", "b", "c"})
	var hotW, otherMax float64
	for _, e := range imp {
		if e.Name == "hot" {
			hotW = e.Weight
		} else if e.Weight > otherMax {
			otherMax = e.Weight
		}
	}
	if hotW < 10*otherMax {
		t.Fatalf("hot tier weight %v should dwarf others (max %v)", hotW, otherMax)
	}
}

func TestLeastSquaresCollinearStable(t *testing.T) {
	// Two identical columns: ridge damping must keep the solve finite.
	X := [][]float64{}
	y := []float64{}
	for i := 0; i < 30; i++ {
		v := float64(i) * 0.1
		X = append(X, []float64{v, v})
		y = append(y, 4*v+1)
	}
	w := leastSquares(X, y)
	for _, wi := range w {
		if math.IsNaN(wi) || math.IsInf(wi, 0) {
			t.Fatalf("collinear solve produced %v", w)
		}
	}
	// The two identical features should share the weight: sum ≈ 4.
	if math.Abs(w[0]+w[1]-4) > 1e-3 {
		t.Fatalf("shared weight sum = %v, want ~4", w[0]+w[1])
	}
}

func TestPerturbScalesBracketUnity(t *testing.T) {
	var below, above bool
	for _, s := range PerturbScales {
		if s < 1 {
			below = true
		}
		if s > 1 {
			above = true
		}
		if s <= 0 {
			t.Fatalf("non-positive perturbation scale %v", s)
		}
	}
	if !below || !above {
		t.Fatal("perturbation scales should bracket 1 in both directions")
	}
}

func TestRankDoesNotMutateSamples(t *testing.T) {
	d := nn.Dims{N: 3, T: 2, F: 2, M: 5}
	m := &linearModel{d: d, hotTier: 1, hotChan: 0}
	samples := synthSamples(d, 2)
	before := append([]float64(nil), samples.RH.Data...)
	TierImportance(m, samples, d, []string{"a", "b", "c"})
	for i := range before {
		if samples.RH.Data[i] != before[i] {
			t.Fatal("LIME perturbed the caller's samples in place")
		}
	}
}
