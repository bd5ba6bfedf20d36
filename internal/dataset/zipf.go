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
	if theta <= 0 || len(keys) < 2 {
		return sample(keys, m, r, uniform(len(keys)))
	}
	return sample(keys, m, r, newZipf(len(keys), theta, r).next)
}

// uniform draws positions in [0, n), one draw each.
func uniform(n int) func(*rng) int { return func(r *rng) int { return r.intn(n) } }

// sample returns the m keys at the positions draw yields, draw taking
// one draw of r per position. Every CPU fills one chunk of the stream
// from its own generator, jumped to the chunk's first draw. Within a
// chunk a block of positions is drawn before its keys are fetched: the
// fetches miss the cache, and back to back they overlap, where one
// between two draws would wait behind the arithmetic of a draw.
func sample(keys []core.Key, m int, r *rng, draw func(*rng) int) []core.Key {
	out := make([]core.Key, m)
	core.Parallel(m, func(_, lo, hi int) struct{} {
		r := r.at(lo)
		var idx [256]int
		for ; lo < hi; lo += len(idx) {
			block := out[lo:min(lo+len(idx), hi)]
			for i := range block {
				idx[i] = draw(r)
			}
			for i := range block {
				block[i] = keys[idx[i]]
			}
		}
		return struct{}{}
	})
	return out
}

// zipf draws zipfian ranks in [0, n) via the Gray et al. analytic
// transform (the YCSB core generator), then scrambles each rank with a
// stateless hash so rank 0 (the hottest key) lands at a pseudo-random
// position rather than the smallest key.
type zipf struct {
	n        int
	alpha    float64
	zetan    float64
	zeta2    float64 // 1 + 0.5^theta: the cumulative weight of ranks 0 and 1
	eta      float64
	margin   float64 // relative: how far rank's Exp-Log estimate may be from math.Pow's
	scramble uint64
}

// zetaMemo holds ζ(n, θ) = Σ 1/i^θ, keyed by [2]float64{n, θ}: n
// terms that every stream over one key set would repeat.
var zetaMemo sync.Map

// zeta computes the terms on every CPU and adds them on one, in index
// order: a float sum depends on its order, and ζ must be the same to
// the last bit on any machine. The terms are garbage on return.
func zeta(n int, theta float64) float64 {
	key := [2]float64{float64(n), theta}
	if v, ok := zetaMemo.Load(key); ok {
		return v.(float64)
	}
	terms := make([]float64, n)
	core.Parallel(n, func(_, lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			terms[i] = zetaTerm(float64(i+1), theta)
		}
		return struct{}{}
	})
	var sum float64
	for _, t := range terms {
		sum += t
	}
	zetaMemo.Store(key, sum)
	return sum
}

// zetaTerm is 1/x^θ, bit for bit 1/math.Pow(x, θ), for x ≥ 1. For
// 0 < θ < 1 it takes the path Pow takes, without Pow's checks for the
// special cases: Sqrt at θ = 0.5, Exp(θ·Log x) below it, and above it
// Exp((θ−1)·Log x) times x, which Pow multiplies by x's mantissa and
// scales by its exponent, exactly. A term costs about half a Pow.
func zetaTerm(x, theta float64) float64 {
	switch {
	case theta == 0.5:
		return 1 / math.Sqrt(x)
	case 0 < theta && theta < 0.5:
		return 1 / math.Exp(theta*math.Log(x))
	case 0.5 < theta && theta < 1:
		return 1 / (math.Exp((theta-1)*math.Log(x)) * x)
	}
	return 1 / math.Pow(x, theta)
}

func newZipf(n int, theta float64, r *rng) *zipf {
	z := &zipf{n: n, scramble: r.next(), zetan: zeta(n, theta)}
	z.alpha = 1 / (1 - theta)
	z.zeta2 = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	// Pow's squarings through α's integer part err by up to about α+8
	// units of 2⁻⁵³, relative, and Exp(α·Log x) by about 2·ln(n/est)+2,
	// under 92 wherever the estimate est is 1/2 or more (below, both
	// floors are 0); the margin is 64 times their sum, about 1.4e-12 at
	// θ = 0.99.
	z.margin = (z.alpha + 100) * 0x1p-47
	return z
}

// next draws one rank with one draw of r.
func (z *zipf) next(r *rng) int {
	rank, _ := z.rank(r.float64())
	return int(mix64(uint64(rank)^z.scramble) % uint64(z.n))
}

// rank is the unscrambled rank of uniform draw u: n·x^α, x = 1 − η(1−u),
// rounded down. It estimates n·x^α as n·Exp(α·Log x), where math.Pow
// also squares its way through α's integer part, and keeps the
// estimate's floor when it is the same at both ends of the margin,
// where Pow's must be too; only a value within the margin of an integer
// (or a NaN) asks Pow, and fellBack says it did.
func (z *zipf) rank(u float64) (rank int, fellBack bool) {
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0, false
	case uz < z.zeta2:
		return 1, false
	}
	x := z.eta*u - z.eta + 1
	est := float64(z.n) * math.Exp(z.alpha*math.Log(x))
	if lo := math.Floor(est * (1 - z.margin)); lo == math.Floor(est*(1+z.margin)) {
		rank = int(lo)
	} else {
		rank, fellBack = int(float64(z.n)*math.Pow(x, z.alpha)), true
	}
	return min(rank, z.n-1), fellBack
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
	// A candidate is two draws — a gap, an offset into it — unless its
	// gap is < 2, which ends it after the first. A block of candidates is
	// drawn as if all took two, so that their gaps can be fetched together
	// and the set probed back to back (as genOSM does); the first short gap
	// ends the block, and the generator resumes one draw after it, where a
	// one-at-a-time loop would be. The rest of that block's draws are
	// wasted, which is cheap only while short gaps are rare, as they are
	// in every dataset.
	var idx [256]int
	var cand [256]uint64
	for len(out) < m {
		start, n := *r, len(idx)
		for j := range idx {
			idx[j], cand[j] = r.intn(len(keys)), r.next()
		}
		for j, i := range idx {
			gap := uint64(1 << 16) // past the max key: open-ended gap
			if i+1 < len(keys) {
				gap = keys[i+1] - keys[i]
			}
			if gap < 2 {
				r, n = start.at(2*j+1), j
				break
			}
			cand[j] = keys[i] + 1 + cand[j]%(gap-1)
		}
		for j, k := range cand[:n] {
			i := idx[j]
			if k < keys[i] {
				continue // wrapped past the top of the key space
			}
			if i+1 == len(keys) {
				// Only the open-ended last gap can reach a present key.
				if pos := core.LowerBound(keys, k); pos < len(keys) && keys[pos] == k {
					continue
				}
			}
			// The one-at-a-time loop stops at the m-th key: the rest of
			// the block is dropped.
			if len(out) < m && seen.add(k) {
				out = append(out, k)
			}
		}
	}
	return out
}
