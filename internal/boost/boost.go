// Package boost implements gradient-boosted decision trees for binary
// classification, standing in for XGBoost as Sinan's long-term violation
// predictor (Sec. 3.2). Training uses the second-order (gradient/hessian)
// objective with histogram-based approximate split finding — the same
// sparsity/approximation idea the paper cites XGBoost for — L2 leaf
// regularisation, shrinkage, and optional early stopping on a validation
// split. The model is the sum of regression trees; the output score is
// squashed to a violation probability with the logistic function.
package boost

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
)

// Config controls training.
type Config struct {
	NumTrees       int     // maximum boosting rounds (default 150)
	MaxDepth       int     // maximum tree depth (default 5)
	LearningRate   float64 // shrinkage η (default 0.1)
	Lambda         float64 // L2 regularisation on leaf weights (default 1)
	Gamma          float64 // minimum split gain (default 0)
	MinChildWeight float64 // minimum hessian sum per child (default 1)
	Bins           int     // histogram bins per feature (default 64)
	EarlyStopping  int     // stop after this many rounds without val improvement (0 = off)
	PosWeight      float64 // weight multiplier for positive examples (default 1; use neg/pos for balance)
}

func (c Config) withDefaults() Config {
	if c.NumTrees <= 0 {
		c.NumTrees = 150
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 5
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.Lambda <= 0 {
		c.Lambda = 1
	}
	if c.MinChildWeight <= 0 {
		c.MinChildWeight = 1
	}
	if c.Bins <= 1 {
		c.Bins = 64
	}
	if c.PosWeight <= 0 {
		c.PosWeight = 1
	}
	return c
}

// node is one tree node; leaves have Feature == -1.
type node struct {
	Feature     int
	Threshold   float64
	Left, Right int32
	Weight      float64
}

// Tree is one regression tree in the ensemble.
type Tree struct {
	Nodes []node
}

func (t *Tree) predict(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return n.Weight
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Model is a trained boosted-trees classifier.
type Model struct {
	Base  float64 // initial log-odds
	Trees []*Tree
	Dim   int
}

// NumTrees returns the number of trees in the ensemble.
func (m *Model) NumTrees() int { return len(m.Trees) }

// Score returns the raw additive score (log-odds) for one example.
func (m *Model) Score(x []float64) float64 {
	s := m.Base
	for _, t := range m.Trees {
		s += t.predict(x)
	}
	return s
}

// PredictProb returns the violation probability p = σ(score).
func (m *Model) PredictProb(x []float64) float64 {
	return 1 / (1 + math.Exp(-m.Score(x)))
}

// PredictBatch returns probabilities for a batch.
func (m *Model) PredictBatch(X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = m.PredictProb(x)
	}
	return out
}

// ErrorRate returns the fraction of examples misclassified at threshold 0.5.
func (m *Model) ErrorRate(X [][]float64, y []bool) float64 {
	if len(X) == 0 {
		return 0
	}
	wrong := 0
	for i, x := range X {
		if (m.PredictProb(x) >= 0.5) != y[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(X))
}

// WeightedLogLoss returns the mean binary cross-entropy on a dataset with
// positive examples weighted by posW; it is the early-stopping metric (more
// sensitive than the error rate on imbalanced violation data). When
// training uses PosWeight, early stopping must track the same weighted
// objective — otherwise the unweighted metric looks "best" at the trivial
// all-negative classifier and stops immediately on imbalanced data.
func (m *Model) WeightedLogLoss(X [][]float64, y []bool, posW float64) float64 {
	if len(X) == 0 {
		return 0
	}
	s, wsum := 0.0, 0.0
	for i, x := range X {
		z := m.Score(x)
		t, w := 0.0, 1.0
		if y[i] {
			t = 1
			w = posW
		}
		s += w * (math.Max(z, 0) - z*t + math.Log1p(math.Exp(-math.Abs(z))))
		wsum += w
	}
	return s / wsum
}

// Confusion returns false-positive and false-negative rates at threshold 0.5.
func (m *Model) Confusion(X [][]float64, y []bool) (fpr, fnr float64) {
	var fp, fn, pos, neg int
	for i, x := range X {
		pred := m.PredictProb(x) >= 0.5
		if y[i] {
			pos++
			if !pred {
				fn++
			}
		} else {
			neg++
			if pred {
				fp++
			}
		}
	}
	if neg > 0 {
		fpr = float64(fp) / float64(neg)
	}
	if pos > 0 {
		fnr = float64(fn) / float64(pos)
	}
	return fpr, fnr
}

// binner quantises each feature into quantile bins; splits are proposed at
// bin boundaries (approximate split finding).
type binner struct {
	cuts [][]float64 // per feature: ascending upper boundaries (len ≤ bins-1)
}

func fitBinner(X [][]float64, bins int) *binner {
	d := len(X[0])
	b := &binner{cuts: make([][]float64, d)}
	vals := make([]float64, len(X))
	for f := 0; f < d; f++ {
		for i := range X {
			vals[i] = X[i][f]
		}
		sort.Float64s(vals)
		var cuts []float64
		for q := 1; q < bins; q++ {
			v := vals[q*len(vals)/bins]
			if len(cuts) == 0 || v > cuts[len(cuts)-1] {
				cuts = append(cuts, v)
			}
		}
		b.cuts[f] = cuts
	}
	return b
}

func (b *binner) bin(f int, v float64) int {
	cuts := b.cuts[f]
	lo, hi := 0, len(cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= cuts[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Train fits a boosted-trees classifier. If valX is non-empty and
// cfg.EarlyStopping > 0, training stops once validation error has not
// improved for that many rounds, and the best-so-far ensemble is kept.
func Train(X [][]float64, y []bool, cfg Config, valX [][]float64, valY []bool) *Model {
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

	bn := fitBinner(X, cfg.Bins)
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
		growNode(tree, X, binned, bn, grad, hess, idx, 0, cfg)
		m.Trees = append(m.Trees, tree)
		for i := 0; i < n; i++ {
			scores[i] += tree.predict(X[i])
		}

		if cfg.EarlyStopping > 0 && len(valX) > 0 {
			e := m.WeightedLogLoss(valX, valY, cfg.PosWeight)
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

// growNode recursively builds the tree over the given sample indices and
// returns the node index.
func growNode(t *Tree, X [][]float64, binned [][]uint8, bn *binner, grad, hess []float64, idx []int, depth int, cfg Config) int32 {
	var G, H float64
	for _, i := range idx {
		G += grad[i]
		H += hess[i]
	}
	self := int32(len(t.Nodes))
	leafW := -G / (H + cfg.Lambda) * cfg.LearningRate
	t.Nodes = append(t.Nodes, node{Feature: -1, Weight: leafW})
	if depth >= cfg.MaxDepth || len(idx) < 2 {
		return self
	}

	d := len(X[0])
	bestGain := cfg.Gamma
	bestF, bestBin := -1, -1
	parentScore := G * G / (H + cfg.Lambda)
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
			if hl < cfg.MinChildWeight || hr < cfg.MinChildWeight {
				continue
			}
			gain := 0.5 * (gl*gl/(hl+cfg.Lambda) + gr*gr/(hr+cfg.Lambda) - parentScore)
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
	l := growNode(t, X, binned, bn, grad, hess, left, depth+1, cfg)
	r := growNode(t, X, binned, bn, grad, hess, right, depth+1, cfg)
	t.Nodes[self] = node{Feature: bestF, Threshold: thr, Left: l, Right: r}
	return self
}

// Save writes the model as gob.
func (m *Model) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(m)
}

// LoadModel reads a model saved with Save. Beyond the gob decode, every
// tree is structurally validated — feature indices within Dim, child
// indices within the node slice and strictly forward-pointing (no cycles) —
// so a bit-flipped blob yields an error here instead of an out-of-range
// panic or an infinite loop inside a later predict.
func LoadModel(r io.Reader) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, err
	}
	if m.Dim <= 0 {
		return nil, fmt.Errorf("boost: corrupt model")
	}
	for ti, t := range m.Trees {
		if t == nil || len(t.Nodes) == 0 {
			return nil, fmt.Errorf("boost: corrupt model: tree %d is empty", ti)
		}
		for ni, n := range t.Nodes {
			if n.Feature < 0 {
				continue // leaf
			}
			if n.Feature >= m.Dim {
				return nil, fmt.Errorf("boost: corrupt model: tree %d node %d splits on feature %d (dim %d)",
					ti, ni, n.Feature, m.Dim)
			}
			// Children must point strictly forward: trees are built by
			// appending children after their parent, so any backward or
			// self edge means corruption (and would loop predict forever).
			if n.Left <= int32(ni) || n.Right <= int32(ni) ||
				int(n.Left) >= len(t.Nodes) || int(n.Right) >= len(t.Nodes) {
				return nil, fmt.Errorf("boost: corrupt model: tree %d node %d children %d/%d out of range",
					ti, ni, n.Left, n.Right)
			}
		}
	}
	return &m, nil
}
