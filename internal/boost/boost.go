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
	"fmt"
	"math"
	"sort"

	"sinan/internal/wire"
)

// Config controls training.
type Config struct {
	NumTrees      int     // maximum boosting rounds (default 150)
	MaxDepth      int     // maximum tree depth (default 5)
	EarlyStopping int     // stop after this many rounds without val improvement (0 = off)
	PosWeight     float64 // weight multiplier for positive examples (default 1; use neg/pos for balance)
}

// The trainer's fixed settings.
const (
	learningRate   = 0.1 // shrinkage η
	lambda         = 1   // L2 regularisation on leaf weights
	minSplitGain   = 0   // γ: a split must gain more than this
	minChildWeight = 1   // minimum hessian sum per child
	numBins        = 64  // histogram bins per feature (bin indices are stored in a byte)
)

func (c Config) withDefaults() Config {
	if c.NumTrees <= 0 {
		c.NumTrees = 150
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 5
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

// logLoss returns one example's weighted binary cross-entropy at raw score
// z, and its weight.
func logLoss(z float64, y bool, posW float64) (loss, w float64) {
	t, w := 0.0, 1.0
	if y {
		t = 1
		w = posW
	}
	return w * (math.Max(z, 0) - z*t + math.Log1p(math.Exp(-math.Abs(z)))), w
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
	cuts [][]float64 // per feature: ascending upper boundaries (len ≤ numBins-1)
}

// fitBinner takes every feature's cuts from one slab of d·(numBins−1)
// boundaries, each feature's capped at its share.
func fitBinner(X [][]float64) *binner {
	d := len(X[0])
	b := &binner{cuts: make([][]float64, d)}
	vals := make([]float64, len(X))
	slab := make([]float64, d*(numBins-1))
	for f := 0; f < d; f++ {
		for i := range X {
			vals[i] = X[i][f]
		}
		sort.Float64s(vals)
		cuts := slab[f*(numBins-1) : f*(numBins-1) : (f+1)*(numBins-1)]
		for q := 1; q < numBins; q++ {
			v := vals[q*len(vals)/numBins]
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
// cfg.EarlyStopping > 0, training stops once the validation log-loss, with
// positives weighted by cfg.PosWeight, has not improved for that many
// rounds, and the best-so-far ensemble is kept. The loss is weighted as
// training is: unweighted, it looks "best" at the trivial all-negative
// classifier and stops at once on imbalanced violation data.
//
// The layout and the summation orders that keep the trees bit-identical to
// the reference trainer in boost_test.go are described in DESIGN.md §7
// "Trees".
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
	m := &Model{Base: math.Log(prior / (1 - prior)), Dim: d, Trees: make([]*Tree, 0, cfg.NumTrees)}

	g := newGrower(X, y, cfg, m.Base)
	earlyStop := cfg.EarlyStopping > 0 && len(valX) > 0
	var valScore []float64 // running Score of every validation row
	if earlyStop {
		valScore = filled(len(valX), m.Base)
	}

	bestErr := math.Inf(1)
	bestLen := 0
	sinceBest := 0

	for round := 0; round < cfg.NumTrees; round++ {
		tree := g.next()
		m.Trees = append(m.Trees, tree)
		if !earlyStop {
			continue
		}

		s, wsum := 0.0, 0.0
		for i, x := range valX {
			valScore[i] += tree.predict(x)
			l, w := logLoss(valScore[i], valY[i], cfg.PosWeight)
			s += l
			wsum += w
		}
		if e := s / wsum; e < bestErr-1e-9 {
			bestErr = e
			bestLen = len(m.Trees)
			sinceBest = 0
		} else if sinceBest++; sinceBest >= cfg.EarlyStopping {
			m.Trees = m.Trees[:bestLen]
			break
		}
	}
	return m
}

func filled(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// cell is one histogram bin: the gradient and hessian sums of the node's
// rows whose feature value falls in it.
type cell struct{ g, h float64 }

// grower holds what growing a tree reads and the scratch every node of
// every tree reuses, and hands out every round's Tree and nodes from two
// slabs allocated with it: nothing is allocated per round or per node.
type grower struct {
	cfg    Config
	d      int
	y      []bool
	bn     *binner
	binned []uint8 // pre-binned design matrix [n, d], row-major
	off    []int   // feature f owns hist[off[f]:off[f+1]]
	hist   []cell  // one node's histograms, all features end to end
	rows   []int   // row indices, partitioned in place as the tree grows
	right  []int   // partition scratch

	grad, hess []float64
	scores     []float64 // training rows' running score: base + every tree grown so far

	trees    []Tree // one per round, handed out in order
	nodes    []node // every tree's nodes end to end; the next tree starts at len
	maxNodes int    // the most nodes one tree can have
}

func newGrower(X [][]float64, y []bool, cfg Config, base float64) *grower {
	n, d := len(X), len(X[0])
	g := &grower{
		cfg: cfg, d: d, y: y,
		bn:     fitBinner(X),
		binned: make([]uint8, n*d),
		off:    make([]int, d+1),
		rows:   make([]int, n),
		right:  make([]int, n),
		grad:   make([]float64, n),
		hess:   make([]float64, n),
		scores: filled(n, base),
		trees:  make([]Tree, cfg.NumTrees),
	}
	// A tree is binary and every leaf holds a row (2n − 1 nodes), and it is
	// at most MaxDepth deep (2^(MaxDepth+1) − 1, shifted only where int
	// cannot overflow).
	g.maxNodes = 2*n - 1
	if cfg.MaxDepth < 30 {
		g.maxNodes = min(g.maxNodes, 1<<(cfg.MaxDepth+1)-1)
	}
	g.nodes = make([]node, 0, cfg.NumTrees*g.maxNodes)
	for i, x := range X {
		for f := 0; f < d; f++ {
			g.binned[i*d+f] = uint8(g.bn.bin(f, x[f]))
		}
	}
	for f, c := range g.bn.cuts {
		g.off[f+1] = g.off[f] + len(c) + 1
	}
	g.hist = make([]cell, g.off[d])
	return g
}

// next runs one boosting round: it takes the loss's gradient and hessian at
// the current scores, grows a tree on them and adds it to the scores.
func (g *grower) next() *Tree {
	for i, s := range g.scores {
		p := 1 / (1 + math.Exp(-s))
		t, w := 0.0, 1.0
		if g.y[i] {
			t = 1
			w = g.cfg.PosWeight
		}
		g.grad[i] = w * (p - t)
		g.hess[i] = math.Max(w*p*(1-p), 1e-12)
	}
	for i := range g.rows {
		g.rows[i] = i
	}
	tree := &g.trees[0]
	g.trees = g.trees[1:]
	// The tree appends inside the slab's capacity; capped at its length, it
	// cannot reach the next tree's nodes.
	at := len(g.nodes)
	tree.Nodes = g.nodes[at : at : at+g.maxNodes]
	g.grow(tree, g.rows, 0)
	tree.Nodes = tree.Nodes[:len(tree.Nodes):len(tree.Nodes)]
	g.nodes = g.nodes[:at+len(tree.Nodes)]
	return tree
}

// grow builds the subtree over rows (ascending row indices) in preorder and
// returns its root's index. A node that stays a leaf adds its weight to its
// rows' scores, which is what t.predict would return for them: a row's bin
// is ≤ b exactly when its value is ≤ cuts[b].
func (g *grower) grow(t *Tree, rows []int, depth int) int32 {
	var G, H float64
	for _, i := range rows {
		G += g.grad[i]
		H += g.hess[i]
	}
	self := int32(len(t.Nodes))
	leafW := -G / (H + lambda) * learningRate
	t.Nodes = append(t.Nodes, node{Feature: -1, Weight: leafW})
	if depth < g.cfg.MaxDepth && len(rows) >= 2 {
		if f, b := g.bestSplit(rows, G, H); f >= 0 {
			if nl := g.partition(rows, f, b); nl > 0 && nl < len(rows) {
				l := g.grow(t, rows[:nl], depth+1)
				r := g.grow(t, rows[nl:], depth+1)
				t.Nodes[self] = node{Feature: f, Threshold: g.bn.cuts[f][b], Left: l, Right: r}
				return self
			}
		}
	}
	for _, i := range rows {
		g.scores[i] += leafW
	}
	return self
}

// bestSplit fills the histogram buffer from rows — row-wise, so each cell
// still receives its rows' gradients in ascending row order — and scans it
// for the (feature, bin) of largest gain above minSplitGain; f is -1 when no
// split qualifies. The buffer is free again on return: a node has chosen its
// split before it recurses.
func (g *grower) bestSplit(rows []int, G, H float64) (bestF, bestBin int) {
	d, off, hist := g.d, g.off[:g.d], g.hist
	clear(hist)
	for _, i := range rows {
		gi, hi := g.grad[i], g.hess[i]
		for f, b := range g.binned[i*d : (i+1)*d] {
			c := &hist[off[f]+int(b)]
			c.g += gi
			c.h += hi
		}
	}

	bestGain := float64(minSplitGain)
	bestF, bestBin = -1, -1
	parentScore := G * G / (H + lambda)
	for f := 0; f < d; f++ {
		cells := hist[g.off[f]:g.off[f+1]]
		gl, hl := 0.0, 0.0
		for b, c := range cells[:len(cells)-1] {
			gl += c.g
			hl += c.h
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
	return bestF, bestBin
}

// partition stably moves the rows whose feature f falls in a bin ≤ b to the
// front of rows, the others behind them, and returns how many went left.
func (g *grower) partition(rows []int, f, b int) int {
	nl, right := 0, g.right[:0]
	for _, i := range rows {
		if int(g.binned[i*g.d+f]) <= b {
			rows[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
	}
	copy(rows[nl:], right)
	return nl
}

// Append appends the model's encoding to b: base (f64), dim and the tree
// count (u32), then per tree its node count (u32) and per node feature,
// left and right (u32) and threshold and weight (f64).
func (m *Model) Append(b []byte) []byte {
	b = wire.AppendU32(wire.AppendF64(b, m.Base), m.Dim, len(m.Trees))
	for _, t := range m.Trees {
		b = wire.AppendU32(b, len(t.Nodes))
		for _, n := range t.Nodes {
			b = wire.AppendF64(wire.AppendU32(b, n.Feature, int(n.Left), int(n.Right)), n.Threshold, n.Weight)
		}
	}
	return b
}

// nodeBytes is one node's encoded size.
const nodeBytes = 3*4 + 2*8

// ReadModel decodes a model Append wrote from r. Every count is checked
// against the bytes left before anything is sized from it, and every tree
// is structurally validated — feature indices within Dim, child indices
// within the node slice and strictly forward-pointing (no cycles) — so a
// bit-flipped model yields an error here instead of an out-of-range panic
// or an infinite loop inside a later predict.
func ReadModel(r *wire.Reader) (*Model, error) {
	m := &Model{Base: r.F64(), Dim: int(int32(r.U32()))}
	if m.Dim <= 0 {
		r.Fail(fmt.Errorf("dim %d", m.Dim))
	}
	m.Trees = make([]*Tree, r.Count(4+nodeBytes))
	for ti := range m.Trees {
		t := &Tree{Nodes: make([]node, r.Count(nodeBytes))}
		if len(t.Nodes) == 0 {
			r.Fail(fmt.Errorf("tree %d is empty", ti))
		}
		for ni := range t.Nodes {
			n := node{Feature: int(int32(r.U32())), Left: int32(r.U32()), Right: int32(r.U32()), Threshold: r.F64(), Weight: r.F64()}
			// A split's children point strictly forward: trees are built by
			// appending children after their parent, so a backward or self
			// edge is corruption (and would loop predict forever).
			if n.Feature >= m.Dim || n.Feature >= 0 && (n.Left <= int32(ni) || n.Right <= int32(ni) ||
				int(n.Left) >= len(t.Nodes) || int(n.Right) >= len(t.Nodes)) {
				r.Fail(fmt.Errorf("tree %d node %d splits on feature %d (dim %d) into %d/%d", ti, ni, n.Feature, m.Dim, n.Left, n.Right))
			}
			t.Nodes[ni] = n
		}
		m.Trees[ti] = t
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("boost: corrupt model: %w", err)
	}
	return m, nil
}
