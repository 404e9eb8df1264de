package core

// limits are the acceptance bounds of Sec. 4.3 for one interval, as the
// scheduler's trust in the model and the observed tail set them.
type limits struct {
	// pd bounds the violation probability of a reclaim, pu that of every
	// other action (p_d < p_u).
	pd, pu float64
	// latBound is the predicted-p99 bound for holding (QoS minus the
	// validation error), downBound the tighter one for reclaiming. Scale-ups
	// have none: their latency prediction is dominated by the current state,
	// and rejecting the very actions that add capacity would force the
	// emergency ramp on every near-boundary drift.
	latBound, downBound float64
	hot                 bool // no reclamation at all
}

// choose applies the filters of Sec. 4.3 to a scored candidate set and
// returns the acceptable row using the least total CPU — of several equally
// cheap ones the first, so the enumeration order decides ties. Row 0 must be
// the hold row: when the model thinks even holding is risky, nothing is
// reclaimed. ok is false when no row is acceptable.
func choose(kind []candKind, total, p99, pviol []float64, lim limits) (best int, ok bool) {
	holdRisky := pviol[0] >= lim.pu
	best = -1
	for i, k := range kind {
		switch k {
		case kindDown, kindDownBatch:
			if lim.hot || holdRisky || pviol[i] >= lim.pd || p99[i] > lim.downBound {
				continue
			}
		case kindHold:
			if pviol[i] >= lim.pu || p99[i] > lim.latBound {
				continue
			}
		default:
			if pviol[i] >= lim.pu {
				continue
			}
		}
		if best < 0 || total[i] < total[best] {
			best = i
		}
	}
	return best, best >= 0
}
