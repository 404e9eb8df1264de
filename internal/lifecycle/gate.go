package lifecycle

import (
	"fmt"
	"math"
	"sync"

	"sinan/internal/core"
	"sinan/internal/dataset"
	"sinan/internal/nn"
	"sinan/internal/tensor"
)

// GateConfig tunes the validation gate.
type GateConfig struct {
	// Holdout is the pinned validation set the gate replays. It is fixed at
	// gate construction — a candidate cannot grade its own homework by
	// shifting the benchmark underneath the comparison.
	Holdout *dataset.Dataset
	// RMSEMargin is the relative slack: a candidate passes when its holdout
	// RMSE is at most live·(1+margin). Default 0.15.
	RMSEMargin float64
	// AbsSlackMS is additive slack on top of the relative margin, so a live
	// RMSE near zero does not make the gate impossible. Default 1ms.
	AbsSlackMS float64
	// MaxRows caps how many holdout rows are replayed per validation
	// (deterministic prefix), bounding gate latency. Default 512; negative
	// replays everything.
	MaxRows int
}

func (c GateConfig) withDefaults() GateConfig {
	if c.RMSEMargin == 0 {
		c.RMSEMargin = 0.15
	}
	if c.AbsSlackMS == 0 {
		c.AbsSlackMS = 1
	}
	if c.MaxRows == 0 {
		c.MaxRows = 512
	}
	return c
}

// GateReport is the outcome of one validation.
type GateReport struct {
	LiveRMSE, CandRMSE float64
	BoundRMSE          float64 // the acceptance bound candidate RMSE was held to
	Rows               int
}

// Gate validates candidate models by replaying a pinned holdout set through
// core.Predictor.PredictBatch — the same entry point live traffic uses — and
// comparing candidate RMSE against the live model's. A Gate is safe for
// concurrent use (validations serialize on an internal mutex).
type Gate struct {
	cfg GateConfig

	mu      sync.Mutex
	in      nn.Inputs
	target  *tensor.Dense
	rows    int
	liveCtx *core.PredictContext
	candCtx *core.PredictContext
}

// NewGate pins the holdout set and prebuilds its input tensors.
func NewGate(cfg GateConfig) (*Gate, error) {
	cfg = cfg.withDefaults()
	if cfg.Holdout == nil || cfg.Holdout.Len() == 0 {
		return nil, fmt.Errorf("lifecycle: gate needs a non-empty holdout set")
	}
	hold := cfg.Holdout
	if cfg.MaxRows > 0 && hold.Len() > cfg.MaxRows {
		idx := make([]int, cfg.MaxRows)
		for i := range idx {
			idx[i] = i
		}
		hold = hold.Select(idx)
	}
	return &Gate{
		cfg:     cfg,
		in:      hold.Inputs(),
		target:  hold.Targets(),
		rows:    hold.Len(),
		liveCtx: core.NewPredictContext(),
		candCtx: core.NewPredictContext(),
	}, nil
}

// rmse replays the holdout through p and returns the root-mean-squared
// error across all predicted percentiles, in ms. Non-finite predictions are
// an error: a model that emits NaN must never be promoted, and NaN would
// otherwise poison the comparison into accepting anything.
func (g *Gate) rmse(p core.Predictor, ctx *core.PredictContext) (float64, error) {
	pred, _, err := p.PredictBatch(ctx, g.in)
	if err != nil {
		return 0, err
	}
	if len(pred.Data) != len(g.target.Data) {
		return 0, fmt.Errorf("lifecycle: prediction shape %d, want %d", len(pred.Data), len(g.target.Data))
	}
	var sum float64
	for i, v := range pred.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("lifecycle: non-finite prediction at row %d", i)
		}
		d := v - g.target.Data[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pred.Data))), nil
}

// Validate replays the pinned holdout through both models and accepts the
// candidate only if its RMSE is within the configured margin of the live
// model's. Dims must match exactly — a shape change can never hot-swap.
// The report is returned even on rejection, so callers can log both RMSEs.
func (g *Gate) Validate(live, cand core.Predictor) (GateReport, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cand == nil {
		return GateReport{}, fmt.Errorf("lifecycle: nil candidate")
	}
	if live == nil {
		return GateReport{}, fmt.Errorf("lifecycle: nil live model")
	}
	lm, cm := live.Meta(), cand.Meta()
	if lm.D != cm.D {
		return GateReport{}, fmt.Errorf("lifecycle: candidate dims %+v, live %+v (shape change cannot hot-swap)", cm.D, lm.D)
	}
	if cm.D != g.cfg.Holdout.D {
		return GateReport{}, fmt.Errorf("lifecycle: candidate dims %+v, holdout %+v", cm.D, g.cfg.Holdout.D)
	}
	liveRMSE, err := g.rmse(live, g.liveCtx)
	if err != nil {
		return GateReport{}, fmt.Errorf("lifecycle: live replay failed: %w", err)
	}
	candRMSE, err := g.rmse(cand, g.candCtx)
	rep := GateReport{LiveRMSE: liveRMSE, CandRMSE: candRMSE, Rows: g.rows}
	rep.BoundRMSE = liveRMSE*(1+g.cfg.RMSEMargin) + g.cfg.AbsSlackMS
	if err != nil {
		return rep, fmt.Errorf("lifecycle: candidate replay failed: %w", err)
	}
	if candRMSE > rep.BoundRMSE {
		return rep, fmt.Errorf("lifecycle: candidate holdout RMSE %.2fms exceeds bound %.2fms (live %.2fms, margin %.0f%%)",
			candRMSE, rep.BoundRMSE, liveRMSE, 100*g.cfg.RMSEMargin)
	}
	return rep, nil
}
