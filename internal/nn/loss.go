package nn

import (
	"math"

	"sinan/internal/tensor"
)

// Scale is the latency scaling function φ of Eq. 2: identity below the knee
// t, saturating above it so that spikes far past the QoS target contribute
// bounded loss. Alpha controls how quickly the excess decays.
//
//	φ(x) = x                       if x ≤ t
//	φ(x) = t + (x−t)/(1+α(x−t))    if x > t
func Scale(x, t, alpha float64) float64 {
	if x <= t {
		return x
	}
	d := x - t
	return t + d/(1+alpha*d)
}

// ScaleDeriv is dφ/dx.
func ScaleDeriv(x, t, alpha float64) float64 {
	if x <= t {
		return 1
	}
	d := 1 + alpha*(x-t)
	return 1 / (d * d)
}

// Loss computes a scalar loss and the gradient with respect to predictions.
// Compute writes the gradient into grad, resized to pred's shape by
// tensor.Ensure and returned, so a caller that keeps grad from step to step
// allocates nothing; a nil grad allocates one.
type Loss interface {
	Compute(grad, pred, truth *tensor.Dense) (float64, *tensor.Dense)
}

// MSE is the mean squared error over all elements.
type MSE struct{}

// Compute implements Loss.
func (MSE) Compute(grad, pred, truth *tensor.Dense) (float64, *tensor.Dense) {
	n := float64(pred.Size())
	grad = tensor.Ensure(grad, pred.Shape...)
	loss := 0.0
	for i, p := range pred.Data {
		d := p - truth.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}

// ScaledMSE is the paper's squared loss applied after φ-scaling both the
// prediction and the ground truth (Sec. 3.1), biasing accuracy toward the
// sub-QoS latency range that allocation decisions depend on.
type ScaledMSE struct {
	Knee  float64 // scale knee t, typically the QoS target
	Alpha float64 // decay strength, e.g. 0.01
}

// Compute implements Loss.
func (s ScaledMSE) Compute(grad, pred, truth *tensor.Dense) (float64, *tensor.Dense) {
	n := float64(pred.Size())
	grad = tensor.Ensure(grad, pred.Shape...)
	loss := 0.0
	for i, p := range pred.Data {
		d := Scale(p, s.Knee, s.Alpha) - Scale(truth.Data[i], s.Knee, s.Alpha)
		loss += d * d
		grad.Data[i] = 2 * d * ScaleDeriv(p, s.Knee, s.Alpha) / n
	}
	return loss / n, grad
}

// BCEWithLogits is binary cross-entropy on logits, used by the multi-task
// baseline's violation head (Fig. 4).
type BCEWithLogits struct{}

// Compute implements Loss; truth values must be 0 or 1.
func (BCEWithLogits) Compute(grad, pred, truth *tensor.Dense) (float64, *tensor.Dense) {
	n := float64(pred.Size())
	grad = tensor.Ensure(grad, pred.Shape...)
	loss := 0.0
	for i, z := range pred.Data {
		y := truth.Data[i]
		// Numerically stable log(1+exp(-|z|)) formulation.
		loss += math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
		grad.Data[i] = (sigmoid(z) - y) / n
	}
	return loss / n, grad
}
