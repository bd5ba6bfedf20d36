package dataset

// Workload generators for the mixed read/write serving experiments:
// zipfian (YCSB-style skewed) lookup streams and fresh-key insert
// streams. Like every generator in this package they are deterministic
// in their seed.

import (
	"math"
	"sync"

	"repro/internal/core"
)

// ZipfLookups samples m lookup keys from keys under a scrambled
// zipfian rank distribution with parameter theta (YCSB's default is
// 0.99): a small set of hot keys receives most lookups, with the hot
// ranks scattered across the key space by a hash so skew does not
// collapse onto one shard of a range-partitioned store. theta must be
// in (0, 1); theta <= 0 degrades to the uniform distribution.
func ZipfLookups(keys []core.Key, m int, theta float64, seed uint64) []core.Key {
	r := newRNG(seed ^ 0x21BF)
	out := make([]core.Key, m)
	if theta <= 0 || len(keys) < 2 {
		for i := range out {
			out[i] = keys[r.intn(len(keys))]
		}
		return out
	}
	z := newZipf(len(keys), theta, r)
	for i := range out {
		out[i] = keys[z.next()]
	}
	return out
}

// zipf draws zipfian ranks in [0, n) via the Gray et al. analytic
// transform (the YCSB core generator), then scrambles each rank with a
// stateless hash so rank 0 (the hottest key) lands at a pseudo-random
// position rather than the smallest key.
type zipf struct {
	r        *rng
	n        int
	alpha    float64
	zetan    float64
	zeta2    float64 // 1 + 0.5^theta: the cumulative weight of ranks 0 and 1
	eta      float64
	scramble uint64
}

// zetaMemo holds ζ(n, θ) = Σ 1/i^θ, keyed by [2]float64{n, θ}: n
// math.Pow calls that every stream over one key set would repeat.
var zetaMemo sync.Map

func zeta(n int, theta float64) float64 {
	key := [2]float64{float64(n), theta}
	if v, ok := zetaMemo.Load(key); ok {
		return v.(float64)
	}
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	zetaMemo.Store(key, sum)
	return sum
}

func newZipf(n int, theta float64, r *rng) *zipf {
	z := &zipf{r: r, n: n, scramble: r.next(), zetan: zeta(n, theta)}
	z.alpha = 1 / (1 - theta)
	z.zeta2 = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func (z *zipf) next() int {
	u := z.r.float64()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1:
		rank = 0
	case uz < z.zeta2:
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	return int(mix64(uint64(rank)^z.scramble) % uint64(z.n))
}

// mix64 is the splitmix64 finalizer, used as a stateless hash.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// InsertKeys returns m keys absent from keys (and distinct from each
// other), drawn uniformly from the gaps between consecutive keys — the
// insert stream of the mixed-workload experiments. keys must be sorted
// and must have gaps (every benchmark dataset does).
func InsertKeys(keys []core.Key, m int, seed uint64) []core.Key {
	r := newRNG(seed ^ 0x1453)
	seen := newU64Set(m)
	out := make([]core.Key, 0, m)
	for len(out) < m {
		i := r.intn(len(keys))
		var gap uint64
		if i+1 < len(keys) {
			gap = keys[i+1] - keys[i]
		} else {
			gap = 1 << 16 // past the max key: open-ended gap
		}
		if gap < 2 {
			continue
		}
		k := keys[i] + 1 + r.next()%(gap-1)
		if k < keys[i] {
			continue // wrapped past the top of the key space
		}
		if i+1 == len(keys) {
			// Only the open-ended last gap can reach a present key.
			if pos := core.LowerBound(keys, k); pos < len(keys) && keys[pos] == k {
				continue
			}
		}
		if seen.add(k) {
			out = append(out, k)
		}
	}
	return out
}
