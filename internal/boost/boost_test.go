package boost

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// synthetic binary task: label = x0 + 2*x1 - x2 > 0.5 with noise.
func synthData(rng *rand.Rand, n int, noise float64) ([][]float64, []bool) {
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.NormFloat64()}
		X[i] = x
		v := x[0] + 2*x[1] - x[2] + noise*rng.NormFloat64()
		y[i] = v > 0.5
	}
	return X, y
}

func TestBoostLearnsSeparableTask(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := synthData(rng, 3000, 0)
	vX, vy := synthData(rng, 1000, 0)
	m := Train(X, y, Config{NumTrees: 80, MaxDepth: 4}, nil, nil)
	if e := m.ErrorRate(vX, vy); e > 0.05 {
		t.Fatalf("validation error %.3f, want < 0.05", e)
	}
}

func TestBoostProbabilitiesInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	X, y := synthData(rng, 500, 0.2)
	m := Train(X, y, Config{NumTrees: 30}, nil, nil)
	for _, p := range m.PredictBatch(X) {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probability out of range: %v", p)
		}
	}
}

func TestBoostMoreTreesImprove(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	X, y := synthData(rng, 2000, 0.1)
	vX, vy := synthData(rng, 800, 0.1)
	small := Train(X, y, Config{NumTrees: 3, MaxDepth: 3}, nil, nil)
	big := Train(X, y, Config{NumTrees: 100, MaxDepth: 4}, nil, nil)
	if big.ErrorRate(vX, vy) >= small.ErrorRate(vX, vy) {
		t.Fatalf("100 trees (%.3f) should beat 3 trees (%.3f)",
			big.ErrorRate(vX, vy), small.ErrorRate(vX, vy))
	}
}

func TestBoostEarlyStopping(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := synthData(rng, 1500, 0.3)
	vX, vy := synthData(rng, 500, 0.3)
	m := Train(X, y, Config{NumTrees: 300, MaxDepth: 4, EarlyStopping: 10}, vX, vy)
	if m.NumTrees() >= 300 {
		t.Fatalf("early stopping never triggered: %d trees", m.NumTrees())
	}
	if m.NumTrees() == 0 {
		t.Fatal("no trees kept")
	}
}

func TestBoostImbalancedPrior(t *testing.T) {
	// 95% negative: base score should start near the prior log-odds and the
	// model should still beat always-negative by recall on positives.
	rng := rand.New(rand.NewSource(5))
	n := 4000
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		x := []float64{rng.Float64(), rng.Float64()}
		X[i] = x
		y[i] = x[0] > 0.9 && x[1] > 0.5 // ~5% positives
	}
	m := Train(X, y, Config{NumTrees: 120, MaxDepth: 4}, nil, nil)
	if m.Base >= 0 {
		t.Fatalf("base log-odds %v should be negative for rare positives", m.Base)
	}
	_, fnr := m.Confusion(X, y)
	if fnr > 0.3 {
		t.Fatalf("false-negative rate %.3f too high", fnr)
	}
}

func TestBoostConstantFeatureIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 800
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		X[i] = []float64{1.0, rng.Float64()} // feature 0 constant
		y[i] = X[i][1] > 0.5
	}
	m := Train(X, y, Config{NumTrees: 20, MaxDepth: 3}, nil, nil)
	for _, tree := range m.Trees {
		for _, nd := range tree.Nodes {
			if nd.Feature == 0 {
				t.Fatal("split on constant feature")
			}
		}
	}
	if e := m.ErrorRate(X, y); e > 0.02 {
		t.Fatalf("error %.3f on trivial task", e)
	}
}

func TestBoostAllOneClass(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []bool{true, true, true}
	m := Train(X, y, Config{NumTrees: 5}, nil, nil)
	for _, x := range X {
		if m.PredictProb(x) < 0.5 {
			t.Fatal("single-class training should predict that class")
		}
	}
}

func TestBoostSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X, y := synthData(rng, 500, 0.1)
	m := Train(X, y, Config{NumTrees: 20, MaxDepth: 3}, nil, nil)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range X {
		if math.Abs(m.PredictProb(x)-m2.PredictProb(x)) > 1e-12 {
			t.Fatalf("loaded model diverges at %d", i)
		}
	}
}

func TestConfusionRates(t *testing.T) {
	m := &Model{Base: -10, Dim: 1} // predicts ~0 for everything
	X := [][]float64{{0}, {0}, {0}, {0}}
	y := []bool{true, true, false, false}
	fpr, fnr := m.Confusion(X, y)
	if fpr != 0 || fnr != 1 {
		t.Fatalf("fpr=%v fnr=%v, want 0 and 1", fpr, fnr)
	}
}

func TestBinnerMonotone(t *testing.T) {
	X := [][]float64{}
	for i := 0; i < 100; i++ {
		X = append(X, []float64{float64(i)})
	}
	b := fitBinner(X, 8)
	prev := -1
	for v := 0.0; v < 100; v += 0.5 {
		bin := b.bin(0, v)
		if bin < prev {
			t.Fatalf("binning not monotone at %v", v)
		}
		prev = bin
	}
	if b.bin(0, -1e9) != 0 {
		t.Fatal("underflow should land in bin 0")
	}
}

func TestMinChildWeightLimitsSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X, y := synthData(rng, 200, 0)
	strict := Train(X, y, Config{NumTrees: 5, MaxDepth: 6, MinChildWeight: 1e9}, nil, nil)
	for _, tree := range strict.Trees {
		if len(tree.Nodes) != 1 {
			t.Fatal("huge min-child-weight should force pure leaves")
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage input should fail to load")
	}
}

func TestLogLossDecreasesWithTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	X, y := synthData(rng, 1500, 0.1)
	small := Train(X, y, Config{NumTrees: 2, MaxDepth: 3}, nil, nil)
	big := Train(X, y, Config{NumTrees: 60, MaxDepth: 4}, nil, nil)
	if big.WeightedLogLoss(X, y, 1) >= small.WeightedLogLoss(X, y, 1) {
		t.Fatal("more boosting rounds should reduce training log loss")
	}
}

func TestPosWeightImprovesRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 3000
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = X[i][0]+X[i][1] > 1.7 // ~4-5% positives
	}
	plain := Train(X, y, Config{NumTrees: 40, MaxDepth: 3}, nil, nil)
	weighted := Train(X, y, Config{NumTrees: 40, MaxDepth: 3, PosWeight: 20}, nil, nil)
	_, fnrPlain := plain.Confusion(X, y)
	_, fnrWeighted := weighted.Confusion(X, y)
	if fnrWeighted > fnrPlain {
		t.Fatalf("positive weighting should not worsen recall: %v vs %v", fnrWeighted, fnrPlain)
	}
}
