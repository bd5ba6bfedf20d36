package search

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// BenchmarkLastMile times every last-mile search kind against bound
// widths spanning the paper's error-bound spectrum (1, 8, 64, 1k), on
// a 1M-key array so wide-bound probes actually miss cache. Run by the
// bench-smoke CI job; compare kinds at fixed width to see the
// branchless win.
func BenchmarkLastMile(b *testing.B) {
	const n = 1 << 20
	const nq = 4096
	rng := rand.New(rand.NewSource(42))
	keys := make([]core.Key, n)
	acc := core.Key(0)
	for i := range keys {
		acc += core.Key(1 + rng.Intn(64))
		keys[i] = acc
	}
	qs := make([]core.Key, nq)
	lbs := make([]int, nq)
	for i := range qs {
		pos := rng.Intn(n)
		qs[i] = keys[pos]
		lbs[i] = core.LowerBound(keys, qs[i])
	}

	widths := []int{1, 8, 64, 1024}
	bounds := func(width int) []core.Bound {
		bs := make([]core.Bound, nq)
		for i, lb := range lbs {
			lo := lb - rng.Intn(width)
			if lo < 0 {
				lo = 0
			}
			hi := lo + width
			if hi > n {
				hi = n
			}
			if hi <= lb {
				hi = lb + 1
			}
			bs[i] = core.Bound{Lo: lo, Hi: hi}
		}
		return bs
	}

	kinds := []struct {
		name string
		fn   Fn
	}{
		{"binary", BinarySearch},
		{"branchless", BranchlessSearch},
		{"linear", linearSearch},
		{"interpolation", interpolationSearch},
	}
	for _, width := range widths {
		bs := bounds(width)
		for _, k := range kinds {
			b.Run(fmt.Sprintf("%s/w=%d", k.name, width), func(b *testing.B) {
				sink := 0
				for i := 0; i < b.N; i++ {
					q := i % nq
					sink += k.fn(keys, qs[q], bs[q])
				}
				sinkPos = sink
			})
		}
	}
}

// sinkPos defeats dead-code elimination of the benchmarked searches.
var sinkPos int
