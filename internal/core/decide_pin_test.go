package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"sinan/internal/apps"
	"sinan/internal/cluster"
	"sinan/internal/metrics"
	"sinan/internal/nn"
	"sinan/internal/runner"
	"sinan/internal/tensor"
)

// How a scriptedModel answers one interval's query.
const (
	answerNormal   = iota // p99 in [20,220) ms, pviol in [0,1)
	answerCalm            // p99 in [20,148) ms, pviol in [0,0.5): hold always passes
	answerParanoid        // p99 in [10,26) ms, pviol in [0.9,1): nothing passes p_u
	answerFail            // host down
	answerShed            // alive but refusing work
	answerNaN             // answerNormal with one row's p99 replaced by NaN
)

// scriptedModel scores every candidate by an integer hash of its allocation
// row and the interval index, so which rows pass the filters — and therefore
// which of several equal-total rows is the first minimum — depends on the
// enumeration order. It digests everything the scheduler hands it.
type scriptedModel struct {
	d      nn.Dims
	step   uint64
	answer int
	costMS float64
	h      hash.Hash64
}

func (m *scriptedModel) Meta() ModelMeta {
	return ModelMeta{D: m.d, QoSMS: 200, RMSEValid: 10, Pd: 0.25, Pu: 0.5}
}

func (m *scriptedModel) LastPredictMS() float64 { return m.costMS }

func (m *scriptedModel) PredictBatch(_ *PredictContext, in nn.Inputs) (*tensor.Dense, []float64, error) {
	// The expanded form repeats one window per row; row 0 is all of it.
	return m.score(in.RH.Data[:m.d.F*m.d.N*m.d.T], in.LH.Data[:m.d.T*m.d.M], in.RC)
}

func (m *scriptedModel) score(rh, lh []float64, rc *tensor.Dense) (*tensor.Dense, []float64, error) {
	b := rc.Shape[0]
	pinFloats(m.h, float64(b))
	pinFloats(m.h, rh...)
	pinFloats(m.h, lh...)
	pinFloats(m.h, rc.Data...)
	switch m.answer {
	case answerFail:
		return nil, nil, errHostDown
	case answerShed:
		return nil, nil, testShedErr{}
	}
	pred := tensor.New(b, m.d.M)
	pv := make([]float64, b)
	for i := 0; i < b; i++ {
		x := m.step*0x9e3779b97f4a7c15 + 0xcbf29ce484222325
		for _, v := range rc.Data[i*m.d.N : (i+1)*m.d.N] {
			x = (x ^ math.Float64bits(v)) * 0x100000001b3
		}
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 32
		u, w := x&0xffff, (x>>16)&0x3ff
		// Integer-valued p99 and k/1024 probabilities: exact on every
		// platform.
		var p99 float64
		switch m.answer {
		case answerCalm:
			p99, pv[i] = float64(20+u%128), float64(w%512)/1024
		case answerParanoid:
			p99, pv[i] = float64(10+u%16), float64(922+w%102)/1024
		default:
			p99, pv[i] = float64(20+u%200), float64(w)/1024
		}
		for j := 0; j < m.d.M; j++ {
			pred.Data[i*m.d.M+j] = p99 - float64(m.d.M-1-j)
		}
	}
	if m.answer == answerNaN {
		pred.Data[int(m.step%uint64(b))*m.d.M+m.d.M-1] = math.NaN()
	}
	return pred, pv, nil
}

// sharedScripted adds the deduplicated query form, so the pin covers both
// dispatch paths.
type sharedScripted struct{ *scriptedModel }

func (s sharedScripted) PredictShared(_ *PredictContext, in nn.SharedInputs) (*tensor.Dense, []float64, error) {
	return s.score(in.RH.Data, in.LH.Data, in.RC)
}

func pinFloats(h hash.Hash64, vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// How a phase loads the tiers. Usage is min(allocation, demand), so
// utilisations move as the scheduler reclaims and the cap bites.
const (
	demandTied     = iota // every tier wants 0.6 cores: equal allocations tie everywhere
	demandDistinct        // per-tier k/8 cores, redrawn every 16 intervals; k = 0 tiers sit idle and tie at 0
	demandHigh            // every tier at 70% of its allocation
)

type pinPhase struct {
	n      int     // intervals
	answer int     // predictor behaviour
	p99    float64 // observed tail, ms (below 100 every interval is "ultra safe")
	drops  int
	demand int
	// reset > 0: the allocation in force becomes reset + (tier mod 4)·spread
	// at the phase start, clamped to the tier maximum — an operator's hand
	// on the dial, which keeps the enumeration away from the floor.
	reset, spread float64
	costMS        float64
	// statsOK: 0 = nil (every agent reported), 1 = tiers 1, 3 and N−1
	// silent, 2 = non-nil and all true.
	statsOK int
}

// pinScript drives the scheduler through every regime of Decide. The
// comments name what each stretch is there to reach; the test checks the
// counters that prove it got there.
func pinScript() []pinPhase {
	s := []pinPhase{
		{n: 4, p99: 130},  // bootstrap: hold until the window fills
		{n: 10, p99: 130}, // from the maximum: utilisations tie within each tier class
		// Uniform allocation and demand: every utilisation ties, so batch
		// membership is whatever the sort makes of equal keys.
		{n: 10, p99: 130, reset: 4},
		{n: 10, p99: 60, reset: 4}, // the same, ultra safe: every row passes, the cheapest batch wins
		{n: 12, p99: 130, demand: demandDistinct, reset: 3.5, spread: 0.1},
		{n: 12, p99: 150, demand: demandDistinct, reset: 2.3, spread: 0.3},
		{n: 12, answer: answerCalm, p99: 130, demand: demandDistinct, reset: 16}, // at the maximum: up steps clamp away
		// Near the floor: steps clamp onto each other and onto the ratios.
		{n: 10, answer: answerCalm, p99: 130, demand: demandDistinct, reset: 0.3, spread: 0.1},
		{n: 8, answer: answerCalm, p99: 130, reset: 5, spread: 0.5},
		{n: 1, answer: answerCalm, p99: 500},                     // unpredicted violation: emergency ramp
		{n: 2, answer: answerCalm, p99: 400},                     // still violating inside the cool-down: ramp continues
		{n: 3, answer: answerCalm, p99: 130},                     // cool-down drains
		{n: 3, p99: 230},                                         // tail past QoS with no valid prediction: hot, no reclaim
		{n: 6, p99: 130, demand: demandDistinct},                 //
		{n: 1, p99: 130, drops: 3, demand: demandDistinct},       // drops alone are a violation
		{n: 8, p99: 130, demand: demandDistinct},                 //
		{n: 5, answer: answerFail, p99: 130, demand: demandHigh}, // outage: degraded fallback upscales, ladder climbs to hold
		{n: 1, answer: answerFail, p99: 400, demand: demandHigh}, // violation while degraded: ramp
		{n: 14, answer: answerCalm, p99: 130},                    // recovery: probes at hold, top-k, full; no reclaim for a victim window
		{n: 3, answer: answerShed, p99: 130, reset: 3},           // sheds: top-k, hold
		{n: 2, answer: answerCalm, p99: 130},                     // two healthy probes…
		{n: 1, answer: answerShed, p99: 130},                     // …and a shed resets the streak
		{n: 5, answer: answerCalm, p99: 130},                     // top-k over fully tied utilisations
		{n: 7, p99: 130, demand: demandDistinct},                 // top-k, then full, over distinct ones
		{n: 2, answer: answerCalm, p99: 130, costMS: 400},        // slow successes are pressure too
		{n: 8, p99: 130, demand: demandDistinct, reset: 2.5, spread: 0.2},
		{n: 9, p99: 130, demand: demandDistinct, statsOK: 1, reset: 2, spread: 0.2}, // three agents silent past the stale cap
		{n: 3, p99: 130, demand: demandDistinct, statsOK: 2},                        // all reporting again, mask present
		{n: 1, answer: answerNaN, p99: 130, demand: demandDistinct},                 // garbage answer: predictor-error path
		{n: 9, answer: answerCalm, p99: 130, demand: demandDistinct},
	}
	// Misprediction storm: a model-driven interval whose chosen p99 is far
	// below QoS, then a violation that outlasts it by 0–2 intervals — 32
	// times, past the trust threshold.
	for i := 0; i < 32; i++ {
		s = append(s,
			pinPhase{n: 1 + i%3, answer: answerCalm, p99: 500, demand: demandDistinct},
			pinPhase{n: 6 - i%3, answer: answerCalm, p99: 130, demand: demandDistinct})
	}
	return append(s,
		pinPhase{n: 10, p99: 130, demand: demandDistinct, reset: 3, spread: 0.1},        // mistrusted: p_d = 0, nothing is reclaimed
		pinPhase{n: 8, answer: answerParanoid, p99: 130, reset: 2},                      // nothing predicted safe: ramp and cool-down
		pinPhase{n: 24, answer: answerParanoid, p99: 20, demand: demandDistinct},        // ultra-safe override beats classifier and mistrust
		pinPhase{n: 6, p99: 130, demand: demandDistinct, statsOK: 1, reset: 3},          // silent agents again…
		pinPhase{n: 4, answer: answerFail, p99: 130, demand: demandHigh, statsOK: 1},    // …into an outage: the fallback's stale bias
		pinPhase{n: 12, answer: answerCalm, p99: 130, demand: demandDistinct, reset: 3}, //
	)
}

// pinOutcome is what the script observed from outside, for the coverage
// checks.
type pinOutcome struct {
	digest                     uint64
	intervals, reclaims, ramps int
	degraded, topK, hold       int
	s                          *Scheduler
}

func runPinScript(app *apps.App, opts SchedulerOptions, shared bool) pinOutcome {
	n := len(app.Tiers)
	m := &scriptedModel{d: nn.Dims{N: n, T: 5, F: 6, M: 5}, h: fnv.New64a()}
	var p Predictor = m
	if shared {
		p = sharedScripted{m}
	}
	s := NewScheduler(app, p, opts)
	out := pinOutcome{s: s}

	alloc := make([]float64, n)
	for i, tc := range app.Tiers {
		alloc[i] = tc.MaxCPU
	}
	h := fnv.New64a()
	for _, ph := range pinScript() {
		if ph.reset > 0 {
			alloc = make([]float64, n)
			for i, tc := range app.Tiers {
				alloc[i] = math.Min(ph.reset+float64(i%4)*ph.spread, tc.MaxCPU)
			}
		}
		for k := 0; k < ph.n; k++ {
			step := uint64(out.intervals)
			m.step, m.answer, m.costMS = step, ph.answer, ph.costMS

			st := runner.State{Time: float64(step + 1), Alloc: alloc, RPS: 100, QoSMS: app.QoSMS}
			st.Stats = make([]cluster.Stats, n)
			for i := range st.Stats {
				var demand float64
				switch ph.demand {
				case demandTied:
					demand = 0.6
				case demandDistinct:
					x := (uint64(i)+1)*0x9e3779b97f4a7c15 ^ (step>>4)*0xbf58476d1ce4e5b9
					x ^= x >> 31
					demand = float64(x%24) / 8
				case demandHigh:
					demand = alloc[i] * 0.7
				}
				usage := math.Min(alloc[i], demand)
				st.Stats[i] = cluster.Stats{CPUUsage: usage, CPULimit: alloc[i], RSS: float64(100 + i), Cache: 50, NetRx: usage * 1024, NetTx: usage * 512}
			}
			for i := range st.Perc.Values {
				st.Perc.Values[i] = ph.p99 - float64(4*(metrics.NumPercentiles-1-i))
			}
			st.Perc.Count, st.Perc.Drops = 100, ph.drops
			if ph.statsOK > 0 {
				st.StatsOK = make([]bool, n)
				for i := range st.StatsOK {
					st.StatsOK[i] = ph.statsOK == 2 || (i != 1 && i != 3 && i != n-1)
				}
				for i, ok := range st.StatsOK {
					if !ok {
						st.Stats[i] = cluster.Stats{} // the plane zeroes a silent agent's row
					}
				}
			}

			before := total(alloc)
			dec := s.Decide(st)
			deg := 0.0
			if dec.Degraded {
				deg = 1
				out.degraded++
			}
			pinFloats(h, dec.PredP99MS, dec.PViol, deg, float64(dec.Brownout))
			pinFloats(h, dec.Alloc...)
			switch {
			case dec.Brownout == BrownoutTopK:
				out.topK++
			case dec.Brownout == BrownoutHold:
				out.hold++
			}
			if after := total(dec.Alloc); after < before {
				out.reclaims++
			} else if dec.PViol == 1 && dec.PredP99MS == 0 && after > before {
				out.ramps++
			}
			// Not copied: callers keep a decision's Alloc as the next state,
			// so the scheduler must not write it during the next Decide.
			alloc = dec.Alloc
			out.intervals++
		}
	}
	pinFloats(h, float64(m.h.Sum64()>>32), float64(m.h.Sum64()&0xffffffff),
		float64(s.CandidatesScored()), float64(s.Mispredictions()), float64(s.PredictErrors()),
		float64(s.PredictSheds()), float64(s.DegradedIntervals()), float64(s.Recoveries()),
		float64(s.BrownoutIntervals()))
	out.digest = h.Sum64()
	return out
}

// TestDecideSequencePinned pins the scheduler's whole decision behaviour:
// every field of every Decision, every window and allocation matrix handed
// to the predictor, and the final counters, over a scripted sequence that
// visits every regime of Decide on both applications. The digests were
// recorded at commit d791db7, on the single-struct scheduler with the
// []candidate enumeration, before the pure stages replaced it. Do not
// re-record them to make a change pass: a mismatch means some decision, or
// the order of some candidate row, moved.
//
// The arithmetic on this path is copies, clips, adds and single multiplies
// (the one multiply-add, x*2+0.5, is exact), so the pin holds on every
// platform and needs no build constraint.
func TestDecideSequencePinned(t *testing.T) {
	for _, arm := range []struct {
		name   string
		app    *apps.App
		opts   SchedulerOptions
		shared bool
		want   uint64
	}{
		{"hotel/plain", apps.NewHotelReservation(), SchedulerOptions{}, false, 0x1825682dec261383},
		{"social/shared", apps.NewSocialNetwork(), SchedulerOptions{}, true, 0x116d9136265cb9d0},
		{"hotel/rigid-utilcap/shared", apps.NewHotelReservation(), SchedulerOptions{NoBrownout: true, UtilCap: 0.99}, true, 0x0ef6c31e210b1c94},
		{"social/thresholds-noslow/plain", apps.NewSocialNetwork(), SchedulerOptions{Pd: 0.125, Pu: 0.375, SlowPredictMS: -1}, false, 0x3ffcae3bce63f574},
	} {
		out := runPinScript(arm.app, arm.opts, arm.shared)
		if out.digest != arm.want {
			t.Errorf("%s: decision digest %#016x, want %#016x", arm.name, out.digest, arm.want)
		}
		// The script must keep reaching what it is there to pin.
		s := out.s
		if out.intervals < 400 || out.reclaims < 40 || out.ramps < 30 || out.degraded < 8 ||
			s.Mispredictions() < 27 || s.Recoveries() < 4 || s.PredictSheds() < 2 || s.PredictErrors() < 10 {
			t.Errorf("%s: script lost coverage: %+v mispredictions=%d recoveries=%d sheds=%d errors=%d",
				arm.name, out, s.Mispredictions(), s.Recoveries(), s.PredictSheds(), s.PredictErrors())
		}
		if arm.opts.NoBrownout {
			if out.topK+out.hold+s.BrownoutIntervals() != 0 {
				t.Errorf("%s: rigid scheduler browned out: %+v", arm.name, out)
			}
		} else if out.topK < 6 || out.hold < 6 {
			t.Errorf("%s: ladder not exercised: top-k %d, hold %d intervals", arm.name, out.topK, out.hold)
		}
	}
}
