package search

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
)

// ladderForm is one search on the halving ladder.
type ladderForm[K Unsigned] func(keys []K, x K, lo, hi int) int

// rankForms names both forms of the ladder.
func rankForms[K Unsigned]() map[string]ladderForm[K] {
	return map[string]ladderForm[K]{"Rank": Rank[K], "RankBranchless": RankBranchless[K]}
}

// Each form's contract through sort.Search: the rank is the first slot
// of [lo, hi) whose key exceeds x, the predecessor the slot below it
// clamped at 0, and the lower bound the first slot not below x.
func rankOracle[K Unsigned](keys []K, x K, lo, hi int) int {
	return lo + sort.Search(hi-lo, func(i int) bool { return keys[lo+i] > x })
}

func predOracle[K Unsigned](keys []K, x K, lo, hi int) int {
	return max(rankOracle(keys, x, lo, hi)-1, 0)
}

func lowerBoundOracle[K Unsigned](keys []K, x K, lo, hi int) int {
	return lo + sort.Search(hi-lo, func(i int) bool { return keys[lo+i] >= x })
}

// ladderCase is one search on the ladder and its oracle.
type ladderCase[K Unsigned] struct{ form, oracle ladderForm[K] }

// predOffsets are the window starts every width is tried at.
var predOffsets = []int{0, 1, 7, 64, 1000}

// TestPredAgainstSortSearch holds every search on the ladder — both
// rank forms, both predecessor forms and the lower bound — to
// sort.Search for every window width 0..1024 at several offsets, with
// duplicate keys, for x below, at, between and above every key of the
// window, at both key widths.
func TestPredAgainstSortSearch(t *testing.T) {
	checkLadder(t, map[string]ladderCase[core.Key]{
		"BranchlessSearch": {func(keys []core.Key, x core.Key, lo, hi int) int {
			return BranchlessSearch(keys, x, core.Bound{Lo: lo, Hi: hi})
		}, lowerBoundOracle[core.Key]},
	})
	checkLadder(t, map[string]ladderCase[uint32]{})
}

// checkLadder runs the rank and predecessor forms at key type K, and
// the extra cases, over the windows and keys TestPredAgainstSortSearch
// names.
func checkLadder[K Unsigned](t *testing.T, cases map[string]ladderCase[K]) {
	cases["Pred"] = ladderCase[K]{Pred[K], predOracle[K]}
	cases["PredBranchless"] = ladderCase[K]{PredBranchless[K], predOracle[K]}
	for name, f := range rankForms[K]() {
		cases[name] = ladderCase[K]{f, rankOracle[K]}
	}
	rng := rand.New(rand.NewSource(3))
	// Even keys from 2 up, with runs of duplicates: 0 and 1 lie below
	// every slot, and every key±1 between two.
	keys := make([]K, 1000+1024)
	keys[0] = 2
	for i := 1; i < len(keys); i++ {
		keys[i] = keys[i-1] + 2*K(rng.Intn(2))
	}
	for _, lo := range predOffsets {
		for width := 0; width <= 1024; width++ {
			hi := lo + width
			xs := []K{0, 1, ^K(0)}
			for i := lo; i < hi; i += 1 + width/16 {
				xs = append(xs, keys[i]-1, keys[i], keys[i]+1)
			}
			for _, x := range xs {
				for name, c := range cases {
					if got, want := c.form(keys, x, lo, hi), c.oracle(keys, x, lo, hi); got != want {
						t.Fatalf("%s[%T](x=%d, [%d, %d)) = %d, want %d", name, x, x, lo, hi, got, want)
					}
				}
			}
		}
	}
}
