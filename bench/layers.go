package main

import "time"

// loopLayers turns the traced pass into the per-layer metrics of the
// control loop. Home workloads: runner.*, statplane.*, core.* and proc.* are
// taken from the traced social_inproc runs; predsvc.* from the traced
// social_rpc runs, paired interval by interval with the social_inproc run of
// the same seed (the trajectories are bit-identical, so the two runs put
// the same query to the model at the same interval).
//
// inprocRef holds the untraced social_inproc runs of the same seeds, for
// the tracing overhead.
func loopLayers(traced map[string][]runRecord, inprocRef []runRecord, out map[string]float64) {
	var (
		wall, collect, decide, predict time.Duration
		simSec                         float64
		requests                       int64
		intervals, cands, degraded     int
		gcCycles                       uint32
		gcPause                        time.Duration
		collects, decides, selfs, pred []time.Duration
		inprocPredict                  = map[[2]int64]time.Duration{}
	)
	inproc := traced[wInproc]
	for _, r := range inproc {
		wall, simSec, requests, intervals = wall+r.Wall, simSec+r.SimSec, requests+r.Requests, intervals+r.Ops
		gcCycles, gcPause = gcCycles+r.GCCycles, gcPause+r.GCPause
		decide += r.DecideAll
		degraded += r.Degraded
		collects = append(collects, r.Collects...)
		for _, c := range r.Collects {
			collect += c
		}
		for _, s := range r.Decides {
			decides, selfs, pred = append(decides, s.Decide), append(selfs, s.Decide-s.Predict), append(pred, s.Predict)
			predict, cands = predict+s.Predict, cands+s.Cands
			inprocPredict[[2]int64{r.Seed, int64(s.Interval)}] = s.Predict
		}
	}
	runs := float64(len(inproc))
	out["runner.self_ms_per_simsec"] = ms(wall-collect-decide) / simSec
	out["runner.requests_per_simsec"] = float64(requests) / simSec
	out["statplane.collect_us_p50"] = nearestRank(durs(collects, us), 0.5)
	out["statplane.collect_us_p99"] = nearestRank(durs(collects, us), 0.99)
	out["statplane.share"] = collect.Seconds() / wall.Seconds()
	out["core.decide_ms_p50"] = nearestRank(durs(decides, ms), 0.5)
	out["core.decide_ms_p99"] = nearestRank(durs(decides, ms), 0.99)
	out["core.decide_self_ms_p50"] = nearestRank(durs(selfs, ms), 0.5)
	out["core.share"] = decide.Seconds() / wall.Seconds()
	out["core.candidates_per_query"] = float64(cands) / float64(len(decides))
	out["core.model_query_frac"] = float64(len(decides)) / float64(intervals)
	out["core.degraded_frac"] = float64(degraded) / float64(intervals)
	out["core.predict_ms_p50"] = nearestRank(durs(pred, ms), 0.5)
	out["core.predict_us_per_candidate"] = us(predict) / float64(cands)
	out["proc.gc_cycles"] = float64(gcCycles) / runs
	out["proc.gc_pause_ms"] = ms(gcPause) / runs

	var calls, overhead []time.Duration
	floats := 0
	for _, r := range traced[wRPC] {
		for _, s := range r.Decides {
			calls = append(calls, s.Predict)
			floats += s.Floats
			if base, ok := inprocPredict[[2]int64{r.Seed, int64(s.Interval)}]; ok {
				overhead = append(overhead, s.Predict-base)
			}
		}
	}
	out["predsvc.call_ms_p50"] = nearestRank(durs(calls, ms), 0.5)
	out["predsvc.overhead_ms_p50"] = nearestRank(durs(overhead, ms), 0.5)
	out["predsvc.payload_floats"] = float64(floats) / float64(len(calls))

	// Same seeds, same simulated work: the ratio of walls is the overhead.
	untraced := map[int64]time.Duration{}
	for _, r := range inprocRef {
		untraced[r.Seed] = r.Wall
	}
	var ratios []float64
	for _, r := range inproc {
		if base, ok := untraced[r.Seed]; ok {
			ratios = append(ratios, r.Wall.Seconds()/base.Seconds()-1)
		}
	}
	out["trace.overhead_frac"] = median(ratios)
}
