package nn

import (
	"cmp"
	"fmt"
	"math/rand"

	"sinan/internal/wire"
)

// A model's encoding (DESIGN.md §12 "Artifacts") is its kind, dims and
// latent width (0 unless cnn), the normaliser, then each parameter in
// Params() order as name and weights. Every length is implied by the kind
// and the dims, so the bytes are a function of the model alone.

// MaxDim bounds each axis of a decoded Dims (and a CNN's latent width): no
// deployment comes near it, and it keeps every size the dims imply far from
// overflowing an int.
const MaxDim = 1 << 12

// Check reports an axis outside 1..MaxDim.
func (d Dims) Check() error {
	for _, v := range [...]int{d.N, d.T, d.F, d.M} {
		if v < 1 || v > MaxDim {
			return fmt.Errorf("dims %+v out of range (each 1..%d)", d, MaxDim)
		}
	}
	return nil
}

// spec names a model's constructor and its arguments.
type spec struct {
	kind   string
	d      Dims
	latent int // cnn only
}

func specOf(m Regressor) (spec, error) {
	switch v := m.(type) {
	case *LatencyCNN:
		return spec{"cnn", v.dims, v.Latent}, nil
	case *MLP:
		return spec{"mlp", v.dims, 0}, nil
	case *LSTMModel:
		return spec{"lstm", v.dims, 0}, nil
	}
	return spec{}, fmt.Errorf("nn: cannot serialize model type %T", m)
}

// build constructs the model s names, its weights to be overwritten.
func (s spec) build() Regressor {
	rng := rand.New(rand.NewSource(0))
	switch s.kind {
	case "cnn":
		return NewLatencyCNN(rng, s.d, s.latent)
	case "mlp":
		return NewMLP(rng, s.d)
	}
	return NewLSTMModel(rng, s.d)
}

// weights is the number of floats the Params() of the model s names hold,
// computed without building it, or -1 for an unknown kind or latent width.
// TestWeightsMatchesModels keeps it equal to the constructors.
func (s spec) weights() int {
	d := s.d
	dense := func(in, out int) int { return in*out + out }
	switch {
	case s.kind == "cnn" && s.latent >= 1 && s.latent <= MaxDim:
		conv := func(cin, cout int) int { return cout*cin*9 + cout }
		return conv(d.F, cnnC1) + conv(cnnC1, cnnC2) + dense(cnnC2*d.N*d.T, cnnRHOut) +
			dense(d.T*d.M, cnnLHOut) + dense(d.N, cnnRCOut) +
			dense(cnnRHOut+cnnLHOut+cnnRCOut, s.latent) + dense(s.latent, d.M)
	case s.kind == "mlp" && s.latent == 0:
		return dense(d.F*d.N*d.T+d.T*d.M+d.N, mlpH1) + dense(mlpH1, mlpH2) + dense(mlpH2, d.M)
	case s.kind == "lstm" && s.latent == 0:
		return dense(d.F*d.N+d.M+lstmHidden, 4*lstmHidden) + dense(d.N, lstmRCOut) +
			dense(lstmHidden+lstmRCOut, lstmHead) + dense(lstmHead, d.M)
	}
	return -1
}

// AppendModel appends tm's encoding to b.
func AppendModel(b []byte, tm *TrainedModel) ([]byte, error) {
	s, err := specOf(tm.Model)
	if err != nil {
		return nil, err
	}
	b = wire.AppendU32(wire.AppendString(b, s.kind), s.d.N, s.d.T, s.d.F, s.d.M, s.latent)
	n := tm.Norm
	b = wire.AppendF64(wire.AppendF64(wire.AppendF64(b, n.RHMean...), n.RHStd...), n.LHMean, n.LHStd, n.RCMean, n.RCStd)
	for _, p := range tm.Model.Params() {
		b = wire.AppendF64(wire.AppendString(b, p.Name), p.W.Data...)
	}
	return b, nil
}

// ReadModel decodes a model AppendModel wrote from r. Corrupt input —
// truncated, bit-flipped, or carrying hostile dims — is an error, never a
// panic, and the bytes the dims imply are checked against the bytes left
// before a model is sized from them.
func ReadModel(r *wire.Reader) (*TrainedModel, error) {
	s := spec{r.String(), Dims{N: int(r.U32()), T: int(r.U32()), F: int(r.U32()), M: int(r.U32())}, int(r.U32())}
	if err := cmp.Or(r.Err(), s.d.Check()); err != nil {
		return nil, fmt.Errorf("nn: %w", err)
	}
	w := s.weights()
	if w < 0 {
		return nil, fmt.Errorf("nn: unknown model kind %q with latent width %d", s.kind, s.latent)
	}
	if need := 8 * (2*s.d.F + 4 + w); need > r.Len() {
		return nil, fmt.Errorf("nn: a %s of dims %+v takes %d bytes of floats, %d left", s.kind, s.d, need, r.Len())
	}
	norm := &Normalizer{RHMean: make([]float64, s.d.F), RHStd: make([]float64, s.d.F)}
	r.Floats(norm.RHMean)
	r.Floats(norm.RHStd)
	norm.LHMean, norm.LHStd, norm.RCMean, norm.RCStd = r.F64(), r.F64(), r.F64(), r.F64()
	model := s.build()
	for _, p := range model.Params() {
		if name := r.String(); r.Err() == nil && name != p.Name {
			return nil, fmt.Errorf("nn: parameter %q where %q belongs", name, p.Name)
		}
		r.Floats(p.W.Data)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("nn: %w", err)
	}
	return &TrainedModel{Model: model, Norm: norm}, nil
}
