package search

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
)

// predForms names both forms of the predecessor kernel.
var predForms = map[string]func([]core.Key, core.Key, int, int) int{
	"Pred":           Pred,
	"PredBranchless": PredBranchless,
}

// predOracle is the kernel's contract through sort.Search: one below
// the first slot of [lo, hi) whose key exceeds x, clamped at 0.
func predOracle(keys []core.Key, x core.Key, lo, hi int) int {
	i := lo + sort.Search(hi-lo, func(i int) bool { return keys[lo+i] > x })
	return max(i-1, 0)
}

// predOffsets are the window starts every width is tried at.
var predOffsets = []int{0, 1, 7, 64, 1000}

// TestPredAgainstSortSearch holds both forms to sort.Search for every
// window width 0..1024 at several offsets, with duplicate keys, and for
// x below, at, between and above every key of the window.
func TestPredAgainstSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Even keys from 2 up, with runs of duplicates: 0 and 1 lie below
	// every slot, and every key±1 between two.
	keys := make([]core.Key, 1000+1024)
	keys[0] = 2
	for i := 1; i < len(keys); i++ {
		keys[i] = keys[i-1] + 2*core.Key(rng.Intn(2))
	}
	for _, lo := range predOffsets {
		for width := 0; width <= 1024; width++ {
			hi := lo + width
			xs := []core.Key{0, 1, ^core.Key(0)}
			for i := lo; i < hi; i += 1 + width/16 {
				xs = append(xs, keys[i]-1, keys[i], keys[i]+1)
			}
			for _, x := range xs {
				want := predOracle(keys, x, lo, hi)
				for name, pred := range predForms {
					if got := pred(keys, x, lo, hi); got != want {
						t.Fatalf("%s(x=%d, [%d, %d)) = %d, want %d", name, x, lo, hi, got, want)
					}
				}
			}
		}
	}
}
