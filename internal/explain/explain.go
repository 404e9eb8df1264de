// Package explain implements the LIME-style interpretability analysis of
// Sec. 5.6: it perturbs the resource-usage history of individual tiers (or
// individual resource channels of one tier), queries the latency model on
// the perturbed samples, fits a linear surrogate by least squares, and ranks
// tiers/resources by the summed magnitude of their regression weights. This
// is the analysis that identified the social-graph Redis log-sync pathology
// (Fig. 16 / Table 4).
package explain

import (
	"math"
	"sort"

	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// PerturbScales are the multiplicative constants applied to a feature group
// when generating perturbed samples (the paper multiplies utilization
// history by constants such as 0.5 and 0.7).
var PerturbScales = []float64{0.5, 0.7, 0.9, 1.1, 1.3}

// Importance is one ranked entry of a LIME analysis.
type Importance struct {
	Name   string
	Weight float64 // summed |regression weight| of the group
}

// Model is the prediction interface LIME explains: milliseconds p99 for a
// batch of inputs, one history window per row (the latent is not read).
type Model interface {
	PredictWithLatent(in nn.Inputs) (*tensor.Dense, *tensor.Dense)
}

// TierImportance ranks tiers by their influence on the model's latency
// prediction around the given samples (typically samples drawn from
// intervals where QoS violations occurred).
func TierImportance(m Model, samples nn.Inputs, d nn.Dims, tierNames []string) []Importance {
	groups := make([]featureGroup, d.N)
	for n := 0; n < d.N; n++ {
		groups[n] = featureGroup{name: tierNames[n], tier: n, channel: -1}
	}
	return rank(m, samples, d, groups)
}

// ResourceImportance ranks the resource channels of one tier by influence.
// channelNames has length F (e.g. cpu, cpu-limit, rss, cache, rx, tx).
func ResourceImportance(m Model, samples nn.Inputs, d nn.Dims, tier int, channelNames []string) []Importance {
	groups := make([]featureGroup, d.F)
	for f := 0; f < d.F; f++ {
		groups[f] = featureGroup{name: channelNames[f], tier: tier, channel: f}
	}
	return rank(m, samples, d, groups)
}

// featureGroup selects which slice of the RH image a perturbation scales:
// all channels of one tier (channel == -1), or one channel of one tier.
type featureGroup struct {
	name    string
	tier    int
	channel int
}

// rank builds the perturbation dataset, queries the model, fits the linear
// surrogate, and returns groups sorted by descending weight magnitude.
func rank(m Model, samples nn.Inputs, d nn.Dims, groups []featureGroup) []Importance {
	base := samples.Batch()
	g := len(groups)
	// Design matrix rows: one per (sample, group, scale) plus the original
	// samples; features are the applied scale per group (1 = unperturbed).
	rows := base * (1 + g*len(PerturbScales))

	design := make([][]float64, 0, rows)
	batch := nn.Inputs{
		RH: tensor.New(rows, d.F, d.N, d.T),
		LH: tensor.New(rows, d.T, d.M),
		RC: tensor.New(rows, d.N),
	}
	rhRow := d.F * d.N * d.T
	lhRow := d.T * d.M

	copyRow := func(dst int, src int) {
		copy(batch.RH.Data[dst*rhRow:(dst+1)*rhRow], samples.RH.Data[src*rhRow:(src+1)*rhRow])
		copy(batch.LH.Data[dst*lhRow:(dst+1)*lhRow], samples.LH.Data[src*lhRow:(src+1)*lhRow])
		copy(batch.RC.Data[dst*d.N:(dst+1)*d.N], samples.RC.Data[src*d.N:(src+1)*d.N])
	}
	scaleGroup := func(row int, grp featureGroup, scale float64) {
		for f := 0; f < d.F; f++ {
			if grp.channel >= 0 && f != grp.channel {
				continue
			}
			for t := 0; t < d.T; t++ {
				idx := row*rhRow + (f*d.N+grp.tier)*d.T + t
				batch.RH.Data[idx] *= scale
			}
		}
	}

	row := 0
	for s := 0; s < base; s++ {
		// Unperturbed anchor.
		copyRow(row, s)
		design = append(design, onesRow(g))
		row++
		for gi, grp := range groups {
			for _, sc := range PerturbScales {
				copyRow(row, s)
				scaleGroup(row, grp, sc)
				feat := onesRow(g)
				feat[gi] = sc
				design = append(design, feat)
				row++
			}
		}
	}

	pred, _ := m.PredictWithLatent(batch)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		y[i] = pred.At(i, d.M-1) // explain the p99 prediction
	}

	w := leastSquares(design, y)
	out := make([]Importance, g)
	for i, grp := range groups {
		out[i] = Importance{Name: grp.name, Weight: math.Abs(w[i])}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Weight > out[b].Weight })
	return out
}

func onesRow(n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = 1
	}
	return r
}

// leastSquares solves min ‖Xw + b − y‖² (with intercept) via the normal
// equations and Gaussian elimination with partial pivoting; ridge damping
// keeps the system well-posed when groups are collinear.
func leastSquares(X [][]float64, y []float64) []float64 {
	n := len(X)
	d := len(X[0]) + 1 // +1 intercept
	ata := make([][]float64, d)
	aty := make([]float64, d)
	for i := range ata {
		ata[i] = make([]float64, d)
	}
	xi := make([]float64, d)
	for r := 0; r < n; r++ {
		copy(xi, X[r])
		xi[d-1] = 1
		for i := 0; i < d; i++ {
			aty[i] += xi[i] * y[r]
			for j := 0; j < d; j++ {
				ata[i][j] += xi[i] * xi[j]
			}
		}
	}
	for i := 0; i < d; i++ {
		ata[i][i] += 1e-8
	}
	w := solve(ata, aty)
	return w[:d-1]
}

// solve performs in-place Gaussian elimination with partial pivoting.
func solve(a [][]float64, b []float64) []float64 {
	n := len(b)
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		pivot := a[col][col]
		if pivot == 0 {
			continue
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / pivot
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		if a[i][i] != 0 {
			x[i] = s / a[i][i]
		}
	}
	return x
}
