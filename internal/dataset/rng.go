package dataset

import (
	"math"

	"repro/internal/core"
)

// rng is a small deterministic PRNG (splitmix64 core) used by all
// generators so that datasets and workloads are reproducible across
// runs and Go versions, independent of math/rand's evolution.
type rng struct {
	state uint64
}

func newRNG(seed uint64) *rng { return &rng{state: seed} }

// gamma is splitmix64's increment. The state is a counter, which makes
// every stream splittable: draw k needs none of the draws before it.
const gamma = 0x9E3779B97F4A7C15

// at returns the generator k draws ahead of r.
func (r *rng) at(k int) *rng { return &rng{state: r.state + uint64(k)*gamma} }

// speculate fills items [0, m) chunk-wise, item(g, i) drawing item i
// from g and returning how many draws it took for granted. Every range
// starts at(lo) draws past r, on the assumption that each item before
// it took exactly those draws. An item that takes more — a normal
// variate whose first uniform is 0 and is drawn again — is still right,
// being drawn from its true first draw, but every item behind it is
// not: speculate returns the first such miss with the generator just
// past it, for the caller to resume the same fill from the next item.
// With no miss it returns m and nil. A miss has probability 2^-53 per
// normal variate; the tests force them through chosen seeds.
func speculate(r *rng, m int, at func(i int) int, item func(g *rng, i int) int) (int, *rng) {
	type stop struct {
		i int
		g rng
	}
	stops := core.Parallel(m, func(_, lo, hi int) stop {
		g := r.at(at(lo))
		for i := lo; i < hi; i++ {
			before := g.state
			if draws := item(g, i); g.state != before+uint64(draws)*gamma {
				return stop{i, *g}
			}
		}
		return stop{i: m}
	})
	for _, s := range stops {
		if s.i < m {
			return s.i, &s.g
		}
	}
	return m, nil
}

// next returns the next 64 random bits (splitmix64).
func (r *rng) next() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform float in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// intn returns a uniform int in [0, n). n must be positive.
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// norm returns a standard normal variate via Box–Muller. It wastes the
// second variate (keeping it would change every key set). It takes two
// draws unless the first is 0, which is drawn again: the key-set
// generators fill chunk-wise on the assumption of two and resume after
// the item where it took more (speculate).
func (r *rng) norm() float64 {
	u1 := r.float64()
	for u1 == 0 {
		u1 = r.float64()
	}
	u2 := r.float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// exp returns an exponential variate with mean 1.
func (r *rng) exp() float64 {
	u := r.float64()
	for u == 0 {
		u = r.float64()
	}
	return -math.Log(u)
}
