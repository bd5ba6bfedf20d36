package core

import (
	"runtime"
	"testing"
)

// TestParallel checks the cut Parallel's callers rely on: consecutive
// ranges of parallelRange items that tile [0, n) exactly once, the k-th
// starting at k·parallelRange, with the results in range order, whatever
// the CPU count.
func TestParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, parallelRange - 1, parallelRange, parallelRange + 1, 5*parallelRange + 7} {
			seen := make([]int32, n)
			got := Parallel(n, func(k, lo, hi int) [3]int {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				return [3]int{k, lo, hi}
			})
			if want := (n + parallelRange - 1) / parallelRange; len(got) != want {
				t.Fatalf("GOMAXPROCS=%d n=%d: %d ranges, want %d", procs, n, len(got), want)
			}
			for k, r := range got {
				if lo := k * parallelRange; r != [3]int{k, lo, min(lo+parallelRange, n)} {
					t.Fatalf("GOMAXPROCS=%d n=%d: result %d is range %v", procs, n, k, r)
				}
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: item %d visited %d times", procs, n, i, c)
				}
			}
		}
	}
}
