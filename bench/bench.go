package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"sinan/internal/nn"
)

// options selects what one invocation does.
type options struct {
	// Workload restricts the invocation to one workload (the driver's
	// mode); empty runs all four, then the traced pass.
	Workload string
	Seed     int64
	// Budget is how long each pass measures. Zero means fixed repetition
	// counts (scale.Rounds), which is what makes two invocations comparable
	// run for run.
	Budget time.Duration
	// Trace, with Workload set, runs the traced pass in place of the
	// untraced one.
	Trace  bool
	Scale  scale
	OutDir string // result.json and trace.json go here
	Log    io.Writer
}

// bench is one invocation's state.
type bench struct {
	opt  options
	sess *session
	tr   *tracer

	setups   []float64              // set-up wall times, seconds
	untraced map[string][]runRecord // by workload, in run order
	traced   map[string][]runRecord
	// inprocRef holds the untraced twin of every traced social_inproc run.
	inprocRef []runRecord
	captured  []nn.SharedInputs // model queries kept for the replay probes
	problems  []string
}

// workloadResult is one workload's block of result.json.
type workloadResult struct {
	Why     string             `json:"why"`
	Runs    int                `json:"runs"`
	Ops     int                `json:"ops"`
	Failed  int                `json:"failed"`
	Metrics map[string]summary `json:"metrics"`
	// DecideTail is the highest percentile of model-driven Decide wall time
	// the pooled sample supports (tailPercentile), for orientation only:
	// on a shared box the tail moves between invocations of identical code.
	DecideTail *tail `json:"decide_tail,omitempty"`
	// Digests maps run seed to the run's digest, so that two commits can be
	// compared for bit-identical behaviour.
	Digests map[string]string `json:"digests"`
}

type tail struct {
	Percentile float64 `json:"percentile"`
	MS         float64 `json:"ms"`
	N          int     `json:"n"`
}

// result is bench/out/result.json.
type result struct {
	Env       environment                   `json:"env"`
	Correct   bool                          `json:"correct"`
	Problems  []string                      `json:"problems,omitempty"`
	Bounds    map[string]metricBound        `json:"bounds"`
	Global    map[string]summary            `json:"global"`
	Workloads map[string]*workloadResult    `json:"workloads"`
	Layers    map[string]float64            `json:"layers,omitempty"`
	TracedOps int                           `json:"traced_ops,omitempty"`
	Budget    map[string]map[string]float64 `json:"layer_self_ms,omitempty"`
}

// metricBound travels inside result.json so that -compare needs only the
// two files.
type metricBound struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Abs    bool    `json:"abs,omitempty"`
	Exact  bool    `json:"exact,omitempty"`
}

type environment struct {
	Commit      string         `json:"commit"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"nproc"`
	CPUModel    string         `json:"cpu_model"`
	Seed        int64          `json:"seed"`
	BudgetSec   float64        `json:"budget_s"`
	Repetitions map[string]int `json:"repetitions"`
	WallSec     float64        `json:"wall_s"`
}

// run executes one invocation and returns its result; an error means the
// benchmark could not run at all (failed output checks are reported in the
// result, not as an error).
func run(opt options) (*result, error) {
	start := time.Now()
	b := &bench{opt: opt, tr: newTracer(), untraced: map[string][]runRecord{}, traced: map[string][]runRecord{}}
	names := []string{opt.Workload}
	if opt.Workload == "" {
		names = workloadNames()
	} else if _, ok := findWorkload(opt.Workload); !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.Workload)
	}
	tracedPass := opt.Workload == "" || opt.Trace
	untracedPass := opt.Workload == "" || !opt.Trace

	setups := 1
	if untracedPass {
		setups = opt.Scale.Setups
	}
	if err := b.setUp(setups); err != nil {
		return nil, err
	}
	defer b.sess.close()

	res := &result{Global: map[string]summary{}, Workloads: map[string]*workloadResult{}, Bounds: map[string]metricBound{}}
	for _, m := range endToEnd {
		res.Bounds[m.Name] = metricBound{Unit: m.Unit, Better: m.Better, Bound: m.Bound, Abs: m.Abs, Exact: m.Exact}
	}
	if untracedPass {
		b.logf("untraced pass: %s", strings.Join(names, ", "))
		b.pass(names, false, opt.Scale.Rounds)
		b.verify(names)
		for _, w := range names {
			res.Workloads[w] = b.workloadResult(w)
		}
	}
	if tracedPass {
		b.logf("traced pass")
		res.Layers = b.tracedPassAndProbes()
		res.Budget = layerBudget(b.tr.spans, b.tr.runs)
		for _, m := range perLayer {
			if v, ok := res.Layers[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				b.problemf("per-layer metric %s was not measured (%v)", m.Name, v)
				res.Layers[m.Name] = 0
			}
		}
		for _, recs := range b.traced {
			for _, r := range recs {
				res.TracedOps += r.Ops
			}
		}
	}
	for _, recs := range []map[string][]runRecord{b.untraced, b.traced, {wInproc: b.inprocRef}} {
		for _, w := range workloads {
			for _, r := range recs[w.Name] {
				b.problems = append(b.problems, r.Problems...)
			}
		}
	}
	res.Global["setup_s"] = summarize(b.setups)
	res.Global["peak_rss_mb"] = summarize([]float64{peakRSSMB()})
	res.Problems, res.Correct = b.problems, len(b.problems) == 0
	res.Env = b.environment(time.Since(start))
	return res, b.write(res)
}

func (b *bench) logf(format string, args ...any) {
	if b.opt.Log != nil {
		fmt.Fprintf(b.opt.Log, format+"\n", args...)
	}
}

// setUp performs the set-up n times from nothing, keeping the last session.
// Every set-up must produce the same model, byte for byte.
func (b *bench) setUp(n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		b.tr.startRun("setup", int64(i))
		s, err := setUp(b.opt.Scale, b.tr)
		if err != nil {
			return err
		}
		b.logf("set-up %d/%d: %.2fs (collect %.2fs, train %.2fs, %d samples, valRMSE %.2f ms)",
			i+1, n, s.total.Seconds(), s.collectDur.Seconds(), s.trainDur.Seconds(), s.ds.Len(), s.report.ValRMSE)
		if b.sess != nil {
			if b.sess.digest != s.digest {
				b.problemf("set-up is not deterministic: model digest %016x then %016x", b.sess.digest, s.digest)
			}
			b.sess.close()
		}
		b.sess = s
		b.setups = append(b.setups, s.total.Seconds())
	}
	return nil
}

// pass runs the named workloads round-robin, Weight runs of each per
// round, so that drift of the machine hits all of them equally. With a
// budget it stops at the end of the first round that exhausts it; without,
// after the given number of rounds. Run r of a workload has seed
// Seed*1000+r in either pass, so social_inproc and social_rpc, and the
// traced and untraced run r, see the same arrivals.
func (b *bench) pass(names []string, traced bool, rounds int) {
	into, tr := b.untraced, (*tracer)(nil)
	if traced {
		into, tr = b.traced, b.tr
	}
	start := time.Now()
	for round := 0; ; round++ {
		if b.opt.Budget > 0 {
			if round > 0 && time.Since(start) >= b.opt.Budget {
				return
			}
		} else if round >= rounds {
			return
		}
		for _, name := range names {
			reps := 1
			if w, _ := findWorkload(name); len(names) > 1 {
				reps = w.Weight
			}
			for k := 0; k < reps; k++ {
				seed := b.opt.Seed*1000 + int64(len(into[name]))
				if traced && name == wInproc {
					// The tracing overhead is a ratio of walls a few percent
					// apart, so the untraced twin of each traced run is taken
					// right beside it, alternating which of the two goes first.
					order := []*tracer{nil, tr}
					if len(into[name])%2 == 1 {
						order = []*tracer{tr, nil}
					}
					for _, t := range order {
						if rec := b.runOne(name, seed, t); t == nil {
							b.inprocRef = append(b.inprocRef, rec)
						} else {
							into[name] = append(into[name], rec)
						}
					}
					continue
				}
				into[name] = append(into[name], b.runOne(name, seed, tr))
			}
		}
	}
}

// verify re-runs the first seed of every managed workload on the in-process
// model and demands the same digest: for social_inproc and hotel_autoscale
// that is the repeatability check, for social_rpc it is the check that the
// wire changes nothing. Where both social workloads ran, every shared seed
// is compared too. Training runs repeat the same input, so all of their
// digests must agree.
func (b *bench) verify(names []string) {
	for _, name := range names {
		recs := b.untraced[name]
		if len(recs) == 0 {
			continue
		}
		if name == wTrain {
			for _, r := range recs[1:] {
				if r.Digest != recs[0].Digest {
					b.problemf("%s: training report differs between runs (%016x vs %016x)", name, r.Digest, recs[0].Digest)
				}
			}
			continue
		}
		ref := name
		if name == wRPC {
			ref = wInproc
		}
		again := b.runOne(ref, recs[0].Seed, nil)
		b.problems = append(b.problems, again.Problems...)
		if again.Digest != recs[0].Digest {
			b.problemf("%s seed %d: digest %016x, but %s gives %016x", name, recs[0].Seed, recs[0].Digest, ref, again.Digest)
		}
	}
	for i, r := range b.untraced[wRPC] {
		if in := b.untraced[wInproc]; i < len(in) && in[i].Digest != r.Digest {
			b.problemf("seed %d: %s digest %016x differs from %s digest %016x", r.Seed, wRPC, r.Digest, wInproc, in[i].Digest)
		}
	}
}

func (b *bench) problemf(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) workloadResult(name string) *workloadResult {
	w, _ := findWorkload(name)
	recs := b.untraced[name]
	out := &workloadResult{Why: w.Why, Runs: len(recs), Metrics: workloadMetrics(name, recs), Digests: map[string]string{}}
	var decides []float64
	for _, r := range recs {
		out.Ops += r.Ops
		out.Failed += r.Failed
		out.Digests[fmt.Sprint(r.Seed)] = fmt.Sprintf("%016x", r.Digest)
		for _, s := range r.Decides {
			decides = append(decides, ms(s.Decide))
		}
	}
	if p := tailPercentile(len(decides)); len(decides) > 0 && p > 50 {
		out.DecideTail = &tail{Percentile: p, MS: nearestRank(decides, p/100), N: len(decides)}
	}
	return out
}

func (b *bench) captureQuery(q nn.SharedInputs) {
	if len(b.captured) < b.opt.Scale.MaxCaptured {
		b.captured = append(b.captured, nn.SharedInputs{RH: q.RH.Clone(), LH: q.LH.Clone(), RC: q.RC.Clone()})
	}
}

// tracedPassAndProbes runs all four workloads with the wrappers installed,
// then the direct probes, and returns every per-layer metric.
func (b *bench) tracedPassAndProbes() map[string]float64 {
	before := b.sess.client.Stats()
	b.pass(workloadNames(), true, b.opt.Scale.TracedRounds)
	after := b.sess.client.Stats()

	for i, r := range b.traced[wRPC] {
		if in := b.traced[wInproc]; i < len(in) && in[i].Digest != r.Digest {
			b.problemf("traced seed %d: %s and %s digests differ", r.Seed, wRPC, wInproc)
		}
	}

	out := map[string]float64{}
	loopLayers(b.traced, b.inprocRef, out)
	out["predsvc.sheds"] = float64(after.Sheds - before.Sheds)
	out["predsvc.retries"] = float64(after.Retries - before.Retries)
	out["predsvc.errors"] = float64(after.Errors - before.Errors)

	s, sc := b.sess, b.opt.Scale
	out["collect.run_s"] = s.collectDur.Seconds()
	out["collect.simsec_per_s"] = sc.CollectSec / s.collectDur.Seconds()
	out["collect.samples"] = float64(s.ds.Len())
	out["lifecycle.encode_ms"] = ms(s.encodeDur)
	out["lifecycle.decode_ms"] = ms(s.decodeDur)
	out["lifecycle.artifact_kb"] = float64(s.artifactBytes) / 1024

	b.logf("probes")
	probeSim(sc.SimEvents, out)
	probeCluster(sc.ClusterSec, out)
	probePredict(s.model, b.captured, sc.ReplayReps, out)
	var trainWalls []float64
	for _, r := range b.traced[wTrain] {
		trainWalls = append(trainWalls, r.Wall.Seconds())
	}
	probeTrain(s.ds, sc.TrainEpochs, time.Duration(median(trainWalls)*float64(time.Second)), out)
	probeMatMul(sc.MatMulReps, out)
	probeHarness(s, out)
	return out
}

func (b *bench) environment(wall time.Duration) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Seed: b.opt.Seed, BudgetSec: b.opt.Budget.Seconds(), WallSec: wall.Seconds(),
		Repetitions: map[string]int{"setup": len(b.setups)},
	}
	// go build stamps the commit into the binary; go run does not, so ask
	// git, which fails harmlessly outside a repository.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+dirty"
				}
			}
		}
	}
	if env.Commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	for w, recs := range b.untraced {
		env.Repetitions[w] = len(recs)
	}
	for w, recs := range b.traced {
		env.Repetitions[w+".traced"] = len(recs)
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// write stores result.json and, after a traced pass, trace.json.
func (b *bench) write(res *result) error {
	if err := os.MkdirAll(b.opt.OutDir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(b.opt.OutDir, "result.json"), res, true); err != nil {
		return err
	}
	if res.Layers == nil {
		return nil
	}
	return writeJSON(filepath.Join(b.opt.OutDir, "trace.json"), traceFile{Runs: b.tr.runs, Spans: b.tr.spans}, false)
}

func writeJSON(path string, v any, indent bool) error {
	var data []byte
	var err error
	if indent {
		data, err = json.MarshalIndent(v, "", "  ")
	} else {
		data, err = json.Marshal(v)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints every metric by name with its unit.
func report(w io.Writer, res *result) {
	e := res.Env
	fmt.Fprintf(w, "commit %s  %s  GOMAXPROCS=%d nproc=%d  %s  seed=%d  wall=%.1fs\n",
		e.Commit, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.Seed, e.WallSec)
	line := func(scope string, m metricDef, s summary) {
		fmt.Fprintf(w, "  %-16s %-20s %12.4f %-8s  q1 %.4f  q3 %.4f  n %d\n", scope, m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
	}
	fmt.Fprintln(w, "end-to-end metrics (median, quartiles, samples):")
	for _, m := range endToEnd {
		if s, ok := res.Global[m.Name]; ok {
			line("global", m, s)
		}
	}
	for _, wd := range workloads {
		wr := res.Workloads[wd.Name]
		if wr == nil {
			continue
		}
		for _, m := range endToEnd {
			if s, ok := wr.Metrics[m.Name]; ok {
				line(wd.Name, m, s)
			}
		}
		fmt.Fprintf(w, "  %-16s runs %d  ops %d  failed %d", wd.Name, wr.Runs, wr.Ops, wr.Failed)
		if t := wr.DecideTail; t != nil {
			fmt.Fprintf(w, "  decide p%g %.3f ms (n %d)", t.Percentile, t.MS, t.N)
		}
		fmt.Fprintln(w)
	}
	if res.Layers != nil {
		fmt.Fprintln(w, "per-layer metrics:")
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.Name, res.Layers[m.Name], m.Unit)
		}
		fmt.Fprintln(w, "self time by layer, ms (traced pass):")
		for _, group := range sortedKeys(res.Budget) {
			for _, n := range sortedKeys(res.Budget[group]) {
				fmt.Fprintf(w, "  %-16s %-20s %12.2f\n", group, n, res.Budget[group][n])
			}
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "FAILED CHECK:", p)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
