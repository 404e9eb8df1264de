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

// Normal returns a Gaussian sample.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return g.r.NormFloat64()*stddev + mean
}

// LogNormalParams converts the mean and coefficient of variation (cv =
// stddev/mean) of a log-normal distribution into the (mu, sigma) of the
// underlying normal. A caller that samples one distribution many times
// computes the pair once and draws with LogNormalFrom. mean must be positive.
func LogNormalParams(mean, cv float64) (mu, sigma float64) {
	sigma2 := math.Log(1 + cv*cv)
	return math.Log(mean) - sigma2/2, math.Sqrt(sigma2)
}

// LogNormalFrom returns a log-normal sample given LogNormalParams' output.
func (g *RNG) LogNormalFrom(mu, sigma float64) float64 {
	return math.Exp(g.r.NormFloat64()*sigma + mu)
}

// LogNormal returns a log-normal sample parameterised by the mean and
// coefficient of variation of the resulting distribution. Log-normal
// service times model the heavy right tail of RPC handlers better than
// exponentials. A non-positive mean yields 0 without consuming a draw.
func (g *RNG) LogNormal(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.LogNormalFrom(LogNormalParams(mean, cv))
}

// Poisson returns a Poisson sample with the given mean, using inversion for
// small means and a Gaussian approximation for large ones.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := int(math.Round(g.r.NormFloat64()*math.Sqrt(mean) + mean))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Zipf returns samples in [0, n) with a Zipfian popularity skew s (s > 1 is
// not required; s = 0 degenerates to uniform). Used to pick hot keys/users.
func (g *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	if s <= 0 {
		return g.r.Intn(n)
	}
	// Inverse-CDF over the (small) support; n is at most a few thousand in
	// our workloads so the linear scan is fine and allocation free.
	u := g.r.Float64() * zipfNorm(n, s)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		if u <= sum {
			return i
		}
	}
	return n - 1
}

func zipfNorm(n int, s float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
	}
	return sum
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomises the order of n elements via the provided swap function.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Fork derives an independent RNG stream from this one; used to hand each
// component its own deterministic source.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}
