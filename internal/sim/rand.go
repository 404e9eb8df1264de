package sim

import (
	"math"
	"math/rand"
)

// RNG wraps a seeded random source with the distributions the cluster model
// and workload generators need. It is not safe for concurrent use; each
// component owns its own RNG so that component behaviour is independent of
// event interleaving elsewhere.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Exp returns an exponential sample with the given mean.
func (g *RNG) Exp(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// LogNormalParams converts the mean and coefficient of variation (cv =
// stddev/mean) of a log-normal distribution into the (mu, sigma) of the
// underlying normal. A caller that samples one distribution many times
// computes the pair once and draws with LogNormalFrom. mean must be positive.
// Log-normal service times model the heavy right tail of RPC handlers
// better than exponentials.
func LogNormalParams(mean, cv float64) (mu, sigma float64) {
	sigma2 := math.Log(1 + cv*cv)
	return math.Log(mean) - sigma2/2, math.Sqrt(sigma2)
}

// LogNormalFrom returns a log-normal sample given LogNormalParams' output.
func (g *RNG) LogNormalFrom(mu, sigma float64) float64 {
	return math.Exp(g.r.NormFloat64()*sigma + mu)
}

// Fork derives an independent RNG stream from this one; used to hand each
// component its own deterministic source.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}
