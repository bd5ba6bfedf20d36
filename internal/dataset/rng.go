package dataset

import (
	"math"
	"runtime"
	"sync"
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

// chunks cuts [0, m) into one contiguous range per CPU, runs fn on all
// of them at once and returns when the last is done. What a stream
// holds must not depend on where the cuts fall: fn derives everything
// it needs from lo.
func chunks(m int, fn func(lo, hi int)) {
	p := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for c := 1; c < p; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c*m/p, (c+1)*m/p)
		}()
	}
	fn(0, m/p)
	wg.Wait()
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
// second variate (keeping it would change every key set), and how many
// draws it takes depends on the draws (u1 == 0 is drawn again): the
// key-set generators built on it cannot jump ahead and stay sequential.
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

// lognorm returns a log-normal variate with the given log-space mean
// and standard deviation.
func (r *rng) lognorm(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.norm())
}
