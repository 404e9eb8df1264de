package boost

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sinan/internal/wire"
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
	b := m.Append(nil)
	r := wire.NewReader(b)
	m2, err := ReadModel(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || !bytes.Equal(m2.Append(nil), b) {
		t.Fatal("the decoded model does not encode back to the same bytes")
	}
	for i, x := range X {
		if m.PredictProb(x) != m2.PredictProb(x) {
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
	b := fitBinner(X)
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

// TestMinChildWeightLimitsSplits: a row's hessian is at most 1/4, so no
// split of 7 rows leaves both children the minimum hessian sum of 1 and the
// trees stay single leaves, although one threshold separates the labels;
// 40 rows of the same task split.
func TestMinChildWeightLimitsSplits(t *testing.T) {
	X, y := make([][]float64, 40), make([]bool, 40)
	for i := range X {
		X[i], y[i] = []float64{float64(i % 7)}, i%7 >= 3
	}
	nodes := func(m *Model) int {
		n := 0
		for _, tree := range m.Trees {
			n += len(tree.Nodes)
		}
		return n
	}
	cfg := Config{NumTrees: 5, MaxDepth: 6}
	if got := nodes(Train(X[:7], y[:7], cfg, nil, nil)); got != cfg.NumTrees {
		t.Fatalf("7 rows grew %d nodes in %d trees, want single leaves", got, cfg.NumTrees)
	}
	if got := nodes(Train(X, y, cfg, nil, nil)); got == cfg.NumTrees {
		t.Fatal("40 rows grew no split")
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := ReadModel(wire.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage input should fail to load")
	}
}

func TestLogLossDecreasesWithTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	X, y := synthData(rng, 1500, 0.1)
	small := Train(X, y, Config{NumTrees: 2, MaxDepth: 3}, nil, nil)
	big := Train(X, y, Config{NumTrees: 60, MaxDepth: 4}, nil, nil)
	if weightedLogLoss(big, X, y, 1) >= weightedLogLoss(small, X, y, 1) {
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

// refTrain and refGrowNode are the trainer as it stood before the flat
// binned matrix (feature-wise histograms over [][]uint8, appended left/right
// index slices, the early-stopping loss re-scored through every tree every
// round), kept as the reference Train must match bit for bit. They read the
// trainer's constants.
func refTrain(X [][]float64, y []bool, cfg Config, valX [][]float64, valY []bool) *Model {
	cfg = cfg.withDefaults()
	n := len(X)
	if n == 0 {
		panic("boost: empty training set")
	}
	d := len(X[0])

	pos := 0
	for _, v := range y {
		if v {
			pos++
		}
	}
	prior := (float64(pos) + 1) / (float64(n) + 2)
	m := &Model{Base: math.Log(prior / (1 - prior)), Dim: d}

	bn := fitBinner(X)
	// Pre-binned design matrix.
	binned := make([][]uint8, n)
	for i := range X {
		row := make([]uint8, d)
		for f := 0; f < d; f++ {
			row[f] = uint8(bn.bin(f, X[i][f]))
		}
		binned[i] = row
	}

	scores := make([]float64, n)
	for i := range scores {
		scores[i] = m.Base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)

	bestErr := math.Inf(1)
	bestLen := 0
	sinceBest := 0

	for round := 0; round < cfg.NumTrees; round++ {
		for i := 0; i < n; i++ {
			p := 1 / (1 + math.Exp(-scores[i]))
			t, w := 0.0, 1.0
			if y[i] {
				t = 1
				w = cfg.PosWeight
			}
			grad[i] = w * (p - t)
			hess[i] = math.Max(w*p*(1-p), 1e-12)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		tree := &Tree{}
		refGrowNode(tree, X, binned, bn, grad, hess, idx, 0, cfg)
		m.Trees = append(m.Trees, tree)
		for i := 0; i < n; i++ {
			scores[i] += tree.predict(X[i])
		}

		if cfg.EarlyStopping > 0 && len(valX) > 0 {
			e := weightedLogLoss(m, valX, valY, cfg.PosWeight)
			if e < bestErr-1e-9 {
				bestErr = e
				bestLen = len(m.Trees)
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= cfg.EarlyStopping {
					m.Trees = m.Trees[:bestLen]
					break
				}
			}
		}
	}
	return m
}

func refGrowNode(t *Tree, X [][]float64, binned [][]uint8, bn *binner, grad, hess []float64, idx []int, depth int, cfg Config) int32 {
	var G, H float64
	for _, i := range idx {
		G += grad[i]
		H += hess[i]
	}
	self := int32(len(t.Nodes))
	leafW := -G / (H + lambda) * learningRate
	t.Nodes = append(t.Nodes, node{Feature: -1, Weight: leafW})
	if depth >= cfg.MaxDepth || len(idx) < 2 {
		return self
	}

	d := len(X[0])
	bestGain := float64(minSplitGain)
	bestF, bestBin := -1, -1
	parentScore := G * G / (H + lambda)
	var histG, histH [256]float64
	for f := 0; f < d; f++ {
		nb := len(bn.cuts[f]) + 1
		if nb < 2 {
			continue
		}
		for b := 0; b < nb; b++ {
			histG[b], histH[b] = 0, 0
		}
		for _, i := range idx {
			b := binned[i][f]
			histG[b] += grad[i]
			histH[b] += hess[i]
		}
		gl, hl := 0.0, 0.0
		for b := 0; b < nb-1; b++ {
			gl += histG[b]
			hl += histH[b]
			gr, hr := G-gl, H-hl
			if hl < minChildWeight || hr < minChildWeight {
				continue
			}
			gain := 0.5 * (gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parentScore)
			if gain > bestGain {
				bestGain = gain
				bestF, bestBin = f, b
			}
		}
	}
	if bestF < 0 {
		return self
	}

	thr := bn.cuts[bestF][bestBin]
	var left, right []int
	for _, i := range idx {
		if int(binned[i][bestF]) <= bestBin {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return self
	}
	l := refGrowNode(t, X, binned, bn, grad, hess, left, depth+1, cfg)
	r := refGrowNode(t, X, binned, bn, grad, hess, right, depth+1, cfg)
	t.Nodes[self] = node{Feature: bestF, Threshold: thr, Left: l, Right: r}
	return self
}

// diffData builds a seeded design matrix whose features cycle through
// continuous, heavily tied (a 0.1 grid, like allocations) and constant
// columns, with one NaN, one +Inf and one -Inf planted when there is room,
// and noisy labels that depend on the first columns (allOne: every label
// true).
func diffData(rng *rand.Rand, n, d int, allOne bool) ([][]float64, []bool) {
	X := make([][]float64, n)
	y := make([]bool, n)
	for i := range X {
		x := make([]float64, d)
		for f := range x {
			switch f % 3 {
			case 0:
				x[f] = rng.NormFloat64()
			case 1:
				x[f] = math.Round(rng.Float64()*40) / 10
			default:
				x[f] = 2.5
				if f%2 == 1 { // every other "constant" column is nearly so
					x[f] = float64(rng.Intn(2))
				}
			}
		}
		X[i] = x
		v := x[0] + 0.5*rng.NormFloat64()
		if d > 1 {
			v += 0.4 * (x[1] - 2)
		}
		y[i] = allOne || v > 0.3
	}
	if n >= 4 {
		X[n/4][0] = math.NaN()
		X[n/2][d/2] = math.Inf(1)
		X[n-1][d-1] = math.Inf(-1)
	}
	return X, y
}

// sameModel reports the first difference between two models, comparing
// floats by their bits.
func sameModel(got, want *Model) string {
	if math.Float64bits(got.Base) != math.Float64bits(want.Base) || got.Dim != want.Dim {
		return fmt.Sprintf("base/dim %v/%d, want %v/%d", got.Base, got.Dim, want.Base, want.Dim)
	}
	if len(got.Trees) != len(want.Trees) {
		return fmt.Sprintf("%d trees kept, want %d", len(got.Trees), len(want.Trees))
	}
	for ti, wt := range want.Trees {
		gt := got.Trees[ti]
		if len(gt.Nodes) != len(wt.Nodes) {
			return fmt.Sprintf("tree %d has %d nodes, want %d", ti, len(gt.Nodes), len(wt.Nodes))
		}
		for ni, w := range wt.Nodes {
			g := gt.Nodes[ni]
			if g.Feature != w.Feature || g.Left != w.Left || g.Right != w.Right ||
				math.Float64bits(g.Threshold) != math.Float64bits(w.Threshold) ||
				math.Float64bits(g.Weight) != math.Float64bits(w.Weight) {
				return fmt.Sprintf("tree %d node %d is %+v, want %+v", ti, ni, g, w)
			}
		}
	}
	return ""
}

// TestTrainMatchesReferenceBitForBit: the flat-matrix trainer grows the
// reference's trees — same Base, same node fields to the bit, same number
// of trees kept by early stopping — over every shape and option that
// changes which code runs.
func TestTrainMatchesReferenceBitForBit(t *testing.T) {
	type variant struct {
		name   string
		cfg    Config
		allOne bool
		val    string // "", "held-out" or "train" (the training rows themselves)
	}
	variants := []variant{
		{name: "defaults", cfg: Config{}},
		{name: "posweight", cfg: Config{PosWeight: 7.5}},
		{name: "one-class", cfg: Config{}, allOne: true},
		{name: "stop-fires", cfg: Config{EarlyStopping: 2, PosWeight: 3}, val: "held-out"},
		{name: "stop-never", cfg: Config{EarlyStopping: 1000}, val: "held-out"},
		{name: "stop-on-train", cfg: Config{EarlyStopping: 3, PosWeight: 2}, val: "train"},
	}
	fired, ran := 0, 0
	check := func(name string, seed int64, n, d int, v variant) {
		rng := rand.New(rand.NewSource(seed))
		X, y := diffData(rng, n, d, v.allOne)
		var vX [][]float64
		var vy []bool
		switch v.val {
		case "held-out":
			vX, vy = diffData(rng, n/3+1, d, false)
		case "train":
			vX, vy = X, y
		}
		want := refTrain(X, y, v.cfg, vX, vy)
		got := Train(X, y, v.cfg, vX, vy)
		if diff := sameModel(got, want); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
		if v.cfg.EarlyStopping > 0 {
			ran++
			if len(want.Trees) < v.cfg.NumTrees {
				fired++
			}
		}
	}
	seed := int64(100)
	for _, n := range []int{1, 2, 4, 257, 1071} {
		for _, d := range []int{1, 4, 88} {
			for _, v := range variants {
				v.cfg.NumTrees, v.cfg.MaxDepth = 12, 4
				seed++
				check(fmt.Sprintf("n=%d d=%d %s", n, d, v.name), seed, n, d, v)
			}
		}
	}
	// The set-up shape under core.TrainHybrid's tree config.
	check("set-up shape", 7, 1071, 88, variant{
		cfg: Config{NumTrees: 200, MaxDepth: 5, EarlyStopping: 25, PosWeight: 4}, val: "held-out"})
	if fired == 0 || fired == ran {
		t.Fatalf("early stopping fired in %d of %d runs that enabled it; the suite must cover both outcomes", fired, ran)
	}
}

// TestGrowerScoresMatchModelScore: the running training score, which takes
// each row's leaf from the partition instead of walking the tree, is
// Model.Score's sequence of adds — NaN and ±Inf rows included.
func TestGrowerScoresMatchModelScore(t *testing.T) {
	X, y := diffData(rand.New(rand.NewSource(11)), 400, 7, false)
	m := &Model{Base: -0.7, Dim: 7}
	g := newGrower(X, y, Config{MaxDepth: 4, PosWeight: 2}.withDefaults(), m.Base)
	for round := 0; round < 8; round++ {
		m.Trees = append(m.Trees, g.next())
		for i, x := range X {
			if got, want := g.scores[i], m.Score(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d row %d: running score %v, Model.Score %v", round, i, got, want)
			}
		}
	}
}

// TestTrainAllocsPerRound: at the set-up shape a boosting round allocates
// nothing — its Tree, its nodes and the binner's cuts come from slabs Train
// allocates once — and the set-up is a fixed count, not one per feature.
// Measured: 0 per round on a set-up of 17. It was 7.8 per round (the Tree and
// the growth steps of its Nodes) on a set-up of 478 (the cuts, grown per
// feature); the reference trainer above makes 283 per round.
func TestTrainAllocsPerRound(t *testing.T) {
	X, y := diffData(rand.New(rand.NewSource(13)), 1071, 88, false)
	allocs := func(rounds int) float64 {
		cfg := Config{NumTrees: rounds, MaxDepth: 5}
		return testing.AllocsPerRun(2, func() { Train(X, y, cfg, nil, nil) })
	}
	setup, full := allocs(1), allocs(61)
	if perRound := (full - setup) / 60; perRound >= 1 || setup > 32 {
		t.Fatalf("%.2f allocations per boosting round on a set-up of %v, want fewer than one on at most 32", perRound, setup)
	}
}

// weightedLogLoss is the mean binary cross-entropy of m on a dataset with
// positive examples weighted by posW: Train's early-stopping metric,
// summed one example at a time.
func weightedLogLoss(m *Model, X [][]float64, y []bool, posW float64) float64 {
	if len(X) == 0 {
		return 0
	}
	s, wsum := 0.0, 0.0
	for i, x := range X {
		l, w := logLoss(m.Score(x), y[i], posW)
		s += l
		wsum += w
	}
	return s / wsum
}
