package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sinan/internal/apps"
	"sinan/internal/boost"
	"sinan/internal/core"
	"sinan/internal/faults"
	"sinan/internal/harness"
	"sinan/internal/nn"
	"sinan/internal/predsvc"
	"sinan/internal/runner"
	"sinan/internal/telemetry"
	"sinan/internal/tensor"
	"sinan/internal/workload"
)

// Overload evaluates the repository's overload controls from both ends of
// the prediction RPC:
//
//   - Serving: a real predsvc.Service is driven open-loop at 4× its measured
//     capacity, protected (admission gate: bounded concurrency, LIFO queue,
//     deadline drops) versus unprotected (admission disabled). The protected
//     server sheds the excess and keeps the latency of admitted requests
//     bounded; the unprotected server accepts everything and queue-collapses
//     — in-flight work piles up and tail latency grows with the backlog.
//     This table is wall-clock by nature (it measures a real server) and is
//     the one table in the suite that is not bit-reproducible.
//
//   - Scheduling: simulated managed runs where the predictor saturates
//     (faults.Overload) and the probability a query is shed scales with its
//     candidate-batch size. Sinan with the brownout ladder shrinks its batch
//     (full → top-k tiers → hold-only) and keeps getting answers; the rigid
//     variant keeps sending full batches, gets shed every interval, and
//     rides its degraded fallback through the windows. Both decide every 1 s
//     interval — the ladder trades decision quality, never decision cadence.
//     These rows are bit-identical across harness worker counts.
func Overload(l *Lab) []*Table {
	tables := []*Table{servingOverloadTable(l)}

	hotelM, _ := l.HotelModel()
	app := apps.NewHotelReservation()
	load := 2500.0
	dur := l.scale(180, 300)
	warm := l.scale(30, 60)
	seed := int64(4343)
	specs := overloadSchedulerSpecs(app, hotelM, "hotel", load, dur, warm, seed)

	t := &Table{
		Title: fmt.Sprintf("Overload — scheduler brownout under predictor saturation (hotel, load %.0f)", load),
		Header: []string{"manager", "P(meet QoS)", "mean CPU", "brownout ivals",
			"degraded ivals", "sheds", "pred errors", "cands scored"},
	}
	for _, run := range l.runSuite("overload-hotel", seed, specs) {
		row := overloadRow(run)
		t.Rows = append(t.Rows, row)
		l.logf("overload %s: meet=%s mean=%s brownout=%s sheds=%s", row[0], row[1], row[2], row[3], row[5])
	}
	t.Notes = append(t.Notes,
		"fault schedule: moderate overload, sub-deadline slowdown, severe overload (faults.Overload); shed probability scales with candidate-batch size",
		"every manager decides every 1 s interval throughout — under pressure Sinan browns out (smaller batches) instead of skipping intervals")
	tables = append(tables, t)
	return tables
}

// overloadRow renders one manager's outcome of the scheduler-side scenario.
func overloadRow(run harness.Outcome) []string {
	res, t := run.Result, tallyOf(run.Result.Trace)
	// "degraded ivals" is the intervals the fallback decided: exactly those
	// whose query failed, so the "pred errors" fold.
	return append([]string{run.Spec.Name, f3(res.Meter.MeetProb()), f1(res.Meter.MeanAlloc())},
		t.cells(t.brownout, t.predictErrors, t.sheds, t.predictErrors, t.scored)...)
}

// overloadSchedulerSpecs builds the three managed runs of the scheduler-side
// overload scenario: Sinan with the brownout ladder, Sinan with the ladder
// disabled (rigid full-size batches), and a no-fault anchor. model is any
// core.Predictor so tests can substitute a cheap fake.
func overloadSchedulerSpecs(app *apps.App, model core.Predictor, name string, load, dur, warm float64, seed int64) []harness.RunSpec {
	plan := faults.Overload(seed, dur)
	base := harness.RunSpec{
		App: app, Pattern: workload.Constant(load),
		Duration: dur, Warmup: warm, Seed: seed, KeepTrace: true,
	}
	mk := func(n string, pol runner.PolicyFactory, inj *faults.Injector) harness.RunSpec {
		sp := base
		sp.Name = name + "/" + n
		sp.Policy = pol
		if inj != nil {
			sp.Faults = inj
		}
		return sp
	}

	brownInj := faults.New(plan)
	rigidInj := faults.New(plan)
	return []harness.RunSpec{
		mk("sinan-brownout", func() runner.Policy {
			return core.NewScheduler(app, brownInj.Predictor(model), core.SchedulerOptions{})
		}, brownInj),
		mk("sinan-rigid", func() runner.Policy {
			return core.NewScheduler(app, rigidInj.Predictor(model), core.SchedulerOptions{NoBrownout: true})
		}, rigidInj),
		mk("sinan-nofault", func() runner.Policy {
			return core.NewScheduler(app, model, core.SchedulerOptions{})
		}, nil),
	}
}

// servingOverloadTable drives a real prediction service past saturation.
// Capacity is measured, not assumed: the per-call cost of the serving model
// at the experiment's batch size sets both the offered rate (4× capacity)
// and the request deadline, so the experiment stresses the same ratio on a
// laptop and a large CI box.
func servingOverloadTable(l *Lab) *Table {
	m := servingModel()
	args := servingArgs(m.D, 192)

	// A small fixed concurrency keeps the driven rates tractable; the
	// admission defaults size this to GOMAXPROCS in production.
	conc := 2
	probe := predsvc.NewServiceWith(m, predsvc.ServiceOptions{MaxConcurrent: conc})
	perCallMS := measurePredictMS(probe, args)
	capacity := float64(conc) / (perCallMS / 1000) // calls/sec at saturation
	rate := 4 * capacity
	driveDur := time.Duration(l.scale(1.2, 3.0) * float64(time.Second))
	if maxReqs := 6000.0; rate*driveDur.Seconds() > maxReqs {
		rate = maxReqs / driveDur.Seconds()
	}
	deadlineMS := 6 * perCallMS
	if deadlineMS < 30 {
		deadlineMS = 30
	}
	if deadlineMS > 250 {
		deadlineMS = 250
	}
	l.logf("overload serving: perCall=%.2fms capacity=%.0f/s offered=%.0f/s deadline=%.0fms",
		perCallMS, capacity, rate, deadlineMS)

	t := &Table{
		Title: fmt.Sprintf("Overload — serving: open loop at %.0f rps (%.1f× measured capacity, deadline %.0f ms)",
			rate, rate/capacity, deadlineMS),
		Header: []string{"server", "ok", "shed", "expired", "failed",
			"p50 ms", "p99 ms", "max in-flight", "peak queue"},
	}
	for _, cfg := range []struct {
		name string
		opts predsvc.ServiceOptions
	}{
		{"protected", predsvc.ServiceOptions{MaxConcurrent: conc}},
		{"unprotected", predsvc.ServiceOptions{MaxConcurrent: -1}},
	} {
		svc := predsvc.NewServiceWith(m, cfg.opts)
		out := driveOpenLoop(svc, args, rate, driveDur, deadlineMS)
		st := svc.StatsSnapshot()
		t.Rows = append(t.Rows, []string{
			cfg.name,
			fmt.Sprintf("%d", out.ok), fmt.Sprintf("%d", out.shed),
			fmt.Sprintf("%d", out.expired), fmt.Sprintf("%d", out.failed),
			f1(out.p50), f1(out.p99),
			fmt.Sprintf("%d", out.maxActive), fmt.Sprintf("%d", st.PeakQueue),
		})
		l.logf("overload serving %s: ok=%d shed=%d expired=%d p99=%.1fms maxActive=%d",
			cfg.name, out.ok, out.shed, out.expired, out.p99, out.maxActive)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("admission gate: %d execution slots, LIFO burst queue, deadline drops; unprotected executes everything immediately", conc),
		"wall-clock measurement of a live server — the one table in the suite that is not bit-reproducible")
	return t
}

// servingOutcome is one driven configuration's tally.
type servingOutcome struct {
	ok, shed, expired, failed int
	maxActive                 int
	p50, p99                  float64
}

// driveOpenLoop offers rate requests/second to the service for dur,
// open-loop: dispatch happens on schedule whether or not earlier requests
// have finished, which is what makes an unprotected server collapse. Returns
// per-request outcomes and the latency quantiles of successful calls.
func driveOpenLoop(svc *predsvc.Service, args *predsvc.PredictArgs, rate float64, dur time.Duration, deadlineMS float64) servingOutcome {
	total := int(rate * dur.Seconds())
	if total < 1 {
		total = 1
	}
	var (
		mu                    sync.Mutex
		lats                  []float64
		shed, expired, failed int64
		active, maxActive     int64
		wg                    sync.WaitGroup
	)
	start := time.Now()
	for sent := 0; sent < total; {
		due := int(time.Since(start).Seconds()*rate) + 1
		if due > total {
			due = total
		}
		for ; sent < due; sent++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a := *args // shallow copy; input slices are shared read-only
				a.DeadlineMS = deadlineMS
				cur := atomic.AddInt64(&active, 1)
				for {
					old := atomic.LoadInt64(&maxActive)
					if cur <= old || atomic.CompareAndSwapInt64(&maxActive, old, cur) {
						break
					}
				}
				var reply predsvc.PredictReply
				t0 := time.Now()
				err := svc.Predict(&a, &reply)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				atomic.AddInt64(&active, -1)
				switch {
				case err == nil:
					mu.Lock()
					lats = append(lats, ms)
					mu.Unlock()
				case core.IsOverload(err):
					atomic.AddInt64(&shed, 1)
				case errors.Is(err, predsvc.ErrExpired):
					atomic.AddInt64(&expired, 1)
				default:
					atomic.AddInt64(&failed, 1)
				}
			}()
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	sort.Float64s(lats)
	return servingOutcome{
		ok: len(lats), shed: int(shed), expired: int(expired), failed: int(failed),
		maxActive: int(maxActive),
		p50:       telemetry.ExactQuantile(lats, 0.5),
		p99:       telemetry.ExactQuantile(lats, 0.99),
	}
}

// measurePredictMS times serial Predict calls through the service and
// returns the mean per-call cost in milliseconds.
func measurePredictMS(svc *predsvc.Service, args *predsvc.PredictArgs) float64 {
	var reply predsvc.PredictReply
	for i := 0; i < 2; i++ {
		svc.Predict(args, &reply) // warm the caches
	}
	const reps = 8
	start := time.Now()
	for i := 0; i < reps; i++ {
		svc.Predict(args, &reply)
	}
	return float64(time.Since(start)) / float64(time.Millisecond) / reps
}

// servingModel builds a small but real hybrid model for the serving
// experiment — big enough that a batched prediction costs measurable CPU,
// small enough that no Lab collection/training is needed.
func servingModel() *core.HybridModel {
	d := nn.Dims{N: 6, T: 4, F: 6, M: 5}
	rng := rand.New(rand.NewSource(7))
	cnn := nn.NewLatencyCNN(rng, d, 8)
	n := 64
	in := nn.Inputs{
		RH: tensor.New(n, d.F, d.N, d.T),
		LH: tensor.New(n, d.T, d.M),
		RC: tensor.New(n, d.N),
	}
	y := tensor.New(n, d.M)
	for i := range in.RH.Data {
		in.RH.Data[i] = rng.Float64()
	}
	for i := range in.RC.Data {
		in.RC.Data[i] = 1 + rng.Float64()
	}
	for i := range y.Data {
		y.Data[i] = 50 + 10*rng.Float64()
	}
	tm := nn.Train(cnn, in, y, nn.TrainConfig{Epochs: 2, Batch: 16, QoSMS: 200, Seed: 7})

	X := make([][]float64, 4)
	for i := range X {
		X[i] = make([]float64, 8+2*d.N) // latent + 2N features (btRow width)
		X[i][0] = float64(i) / 4
	}
	bt := boost.Train(X, []bool{false, true, false, true}, boost.Config{NumTrees: 5}, nil, nil)
	return &core.HybridModel{
		Lat: tm, Viol: bt, D: d, K: 5, QoSMS: 200,
		RMSEValid: 20, Pd: 0.1, Pu: 0.3,
	}
}

// servingArgs builds one reusable batched request for the serving model.
func servingArgs(d nn.Dims, batch int) *predsvc.PredictArgs {
	in := nn.Inputs{
		RH: tensor.New(batch, d.F, d.N, d.T),
		LH: tensor.New(batch, d.T, d.M),
		RC: tensor.New(batch, d.N),
	}
	for i := range in.RH.Data {
		in.RH.Data[i] = float64(i%13) * 0.1
	}
	for i := range in.RC.Data {
		in.RC.Data[i] = 2
	}
	return &predsvc.PredictArgs{RH: in.RH.Data, LH: in.LH.Data, RC: in.RC.Data, Batch: batch}
}
