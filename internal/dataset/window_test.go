package dataset

import (
	"math"
	"math/rand"
	"testing"

	"sinan/internal/cluster"
	"sinan/internal/metrics"
	"sinan/internal/nn"
)

// randomInterval draws one interval's stats and percentiles, now and then
// a −0, a NaN or an infinity among them: the windows are compared as bits.
func randomInterval(rng *rand.Rand, n int) ([]cluster.Stats, metrics.Percentiles) {
	v := func() float64 {
		switch rng.Intn(20) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return math.NaN()
		case 2:
			return math.Inf(1)
		}
		return rng.ExpFloat64() * 100
	}
	stats := make([]cluster.Stats, n)
	for i := range stats {
		stats[i] = cluster.Stats{CPUUsage: v(), CPULimit: v(), RSS: v(), Cache: v(), NetRx: v(), NetTx: v(), QueueLen: v(), Stalled: v()}
	}
	var perc metrics.Percentiles
	for i := range perc.Values {
		perc.Values[i] = v()
	}
	return stats, perc
}

// referenceWindow assembles the model inputs of the last T intervals
// straight from their stats and percentiles, as if every interval's rows
// were fresh slices.
func referenceWindow(d nn.Dims, stats [][]cluster.Stats, percs []metrics.Percentiles, clipMS float64) (rh, lh []float64) {
	rh, lh = make([]float64, d.F*d.N*d.T), make([]float64, d.T*d.M)
	first := len(stats) - d.T
	for t := 0; t < d.T; t++ {
		for n, s := range stats[first+t] {
			fs := s.Features()
			for f := 0; f < d.F; f++ {
				rh[(f*d.N+n)*d.T+t] = fs[f]
			}
		}
		for m, v := range percs[first+t].Values {
			if clipMS > 0 && v > clipMS {
				v = clipMS
			}
			lh[t*d.M+m] = v
		}
	}
	return rh, lh
}

// PushWindow writes each interval over the rows its push evicts. After N
// such recycled pushes past a full window — on a pair of rings driven the
// way the scheduler drives its own, and on a Recorder's — the window reads
// back bit for bit what fresh rows give, every N from none to past three
// trips round the ring.
func TestRecycledWindowsMatchFreshRows(t *testing.T) {
	d := nn.Dims{N: 3, T: 5, F: 6, M: 5}
	const clipMS = 250
	for _, recycled := range []int{0, d.T - 1, d.T, 3*d.T + 1} {
		rng := rand.New(rand.NewSource(int64(recycled)))
		statHist, latHist := metrics.NewHistory[[]float64](d.T), metrics.NewHistory[[]float64](d.T)
		rec := NewRecorder(New(d, 2), clipMS/2.5)
		var stats [][]cluster.Stats
		var percs []metrics.Percentiles
		for i := 0; i < d.T+recycled; i++ {
			s, p := randomInterval(rng, d.N)
			stats, percs = append(stats, s), append(percs, p)
			PushWindow(statHist, latHist, d, s, p, clipMS)
			rec.Observe(s, p, make([]float64, d.N))
		}
		wantRH, wantLH := referenceWindow(d, stats, percs, clipMS)
		for _, ring := range []struct {
			name     string
			stat, lt *metrics.History[[]float64]
		}{{"scheduler", statHist, latHist}, {"recorder", rec.statHist, rec.latHist}} {
			rh, lh := WindowInputsInto(nil, nil, d, ring.stat, ring.lt)
			if !sameBits(rh, wantRH) || !sameBits(lh, wantLH) {
				t.Errorf("%s ring after %d recycled pushes: window differs from fresh rows\nrh %v\nwant %v\nlh %v\nwant %v",
					ring.name, recycled, rh, wantRH, lh, wantLH)
			}
		}
	}
}
