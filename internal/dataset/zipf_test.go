package dataset

import (
	"math"
	"testing"

	"repro/internal/core"
)

// refRank is zipf.rank as it was before the Exp-Log estimate: every rank
// past 1 through math.Pow. It is the oracle for rank's fast path.
func refRank(z *zipf, u float64) int {
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
	return rank
}

// TestZetaTermsMatchPow holds every ζ term up to 2²¹+1, past the
// benchmark's 2M keys, to 1/math.Pow bit for bit, at θ on either side
// of 0.5 and at 0.5 itself: zetaTerm's three paths.
func TestZetaTermsMatchPow(t *testing.T) {
	const xs = 1<<21 + 1
	for _, theta := range []float64{0.1, 0.5, 0.6, 0.9, 0.99} {
		for _, x := range core.Parallel(xs, func(_, lo, hi int) float64 {
			for i := lo + 1; i <= hi; i++ {
				x := float64(i)
				if math.Float64bits(zetaTerm(x, theta)) != math.Float64bits(1/math.Pow(x, theta)) {
					return x
				}
			}
			return 0
		}) {
			if x != 0 {
				t.Errorf("θ=%v: zetaTerm(%v) = %v, 1/math.Pow = %v", theta, x, zetaTerm(x, theta), 1/math.Pow(x, theta))
				break
			}
		}
	}
}

// TestZipfDrawsMatchPow holds zipf.rank to refRank, rank for rank, on
// 4M seeded draws at each of three θ and two key counts, and on the
// draws nearest the rank boundaries a stride of ranks crosses. There the
// Exp-Log estimate's own floor is off Pow's now and then: those draws
// must fall back, and the count of bare estimates that were off shows
// that the fallback is needed.
func TestZipfDrawsMatchPow(t *testing.T) {
	const draws = 4_000_000
	type tally struct {
		fellBack, wrong int
		u               float64 // the first wrong draw
	}
	check := func(z *zipf, u float64, c *tally) {
		got, fell := z.rank(u)
		if fell {
			c.fellBack++
		}
		if got != refRank(z, u) {
			if c.wrong++; c.wrong == 1 {
				c.u = u
			}
		}
	}
	var seeded, edges tally
	bareWrong := 0
	for _, theta := range []float64{0.7, 0.9, 0.99} {
		for _, n := range []int{20_000, 2_000_000} {
			z := newZipf(n, theta, newRNG(1))
			r := newRNG(uint64(n) ^ math.Float64bits(theta))
			// check, inlined: a call a draw costs this loop a third more.
			for _, c := range core.Parallel(draws, func(_, lo, hi int) (c tally) {
				r := r.at(lo)
				for range hi - lo {
					u := r.float64()
					got, fell := z.rank(u)
					if fell {
						c.fellBack++
					}
					if got != refRank(z, u) && c.wrong == 0 {
						c.wrong, c.u = 1, u
					}
				}
				return c
			}) {
				if c.wrong > 0 {
					t.Errorf("θ=%v n=%d: draw u=%v is off Pow's rank", theta, n, c.u)
				}
				seeded.fellBack += c.fellBack
			}
			// Rank k begins where n·x^α reaches k: at x = (k/n)^(1/α), so
			// at u = 1 − (1−x)/η. The draws 8 ulps either side of it
			// straddle the boundary.
			for k := 2; k < n; k += n / 2000 {
				u := 1 - (1-math.Pow(float64(k)/float64(n), 1/z.alpha))/z.eta
				lo := u
				for range 8 {
					lo = math.Nextafter(lo, 0)
				}
				for v := lo; v < 1 && v <= u+(u-lo); v = math.Nextafter(v, 1) {
					check(z, v, &edges)
					if bare := int(float64(n) * math.Exp(z.alpha*math.Log(z.eta*v-z.eta+1))); bare != refRank(z, v) {
						bareWrong++
					}
				}
			}
		}
	}
	if edges.wrong > 0 {
		t.Errorf("%d draws at rank boundaries off Pow's rank, the first u=%v", edges.wrong, edges.u)
	}
	t.Logf("%d seeded draws fell back; at rank boundaries %d fell back, and %d bare estimates were off Pow's rank",
		seeded.fellBack, edges.fellBack, bareWrong)
	if seeded.fellBack == 0 || edges.fellBack == 0 || bareWrong == 0 {
		t.Errorf("the fallback went untested: %d seeded and %d boundary draws fell back, %d bare estimates were off", seeded.fellBack, edges.fellBack, bareWrong)
	}
}
