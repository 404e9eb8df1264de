package main

import (
	"sort"
	"time"

	"sinan/internal/telemetry"
)

// summary is how every repeated measurement is reported: the median, the
// quartiles that give its run-to-run spread, and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes median and quartiles. Quartiles follow Python's
// statistics.quantiles(values, n=4) ("exclusive" method), because that is
// the rule the acceptance procedure in README.md judges spreads with.
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := sorted(vals)
	return summary{Median: exclusiveQuantile(s, 0.5), Q1: exclusiveQuantile(s, 0.25), Q3: exclusiveQuantile(s, 0.75), N: len(s)}
}

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// exclusiveQuantile interpolates at position q·(n+1) of the 1-based sorted
// sample, clamped to the ends.
func exclusiveQuantile(s []float64, q float64) float64 {
	n := len(s)
	pos := q * float64(n+1)
	j := int(pos)
	if j < 1 {
		return s[0]
	}
	if j >= n {
		return s[n-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

func median(vals []float64) float64 { return summarize(vals).Median }

// nearestRank is the q-quantile (q in [0,1]) of unsorted samples by the
// nearest-rank rule the repository uses for latencies.
func nearestRank(vals []float64, q float64) float64 {
	return telemetry.ExactQuantile(sorted(vals), q)
}

// tailPercentile is the highest percentile worth reporting from n samples:
// the highest of 50/90/95/99/99.9 that still has at least ten samples
// beyond it. Below twenty samples only the median qualifies.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, c := range []struct {
		p              float64
		beyondPerMille int
	}{{90, 100}, {95, 50}, {99, 10}, {99.9, 1}} {
		if n*c.beyondPerMille >= 10*1000 {
			best = c.p
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durs(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}
