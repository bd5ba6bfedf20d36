package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelRange is the length of the ranges Parallel cuts. At a few
// nanoseconds per key a range is tens of microseconds of work or more,
// far above the cost of handing it to a goroutine; a pass over fewer
// keys — a tier run of 4,096, a small merge — is one range and runs on
// the caller's goroutine alone.
const parallelRange = 1 << 16

// Parallel cuts [0, n) into consecutive ranges of parallelRange items
// (the last one shorter), calls fn(k, lo, hi) on the k-th of them and
// returns what the calls returned, in range order. Up to GOMAXPROCS
// goroutines, the caller's among them, take the ranges in order from
// one atomic counter: a goroutine that is descheduled holds up the
// range it has, not a fixed share of the whole.
//
// The law every caller keeps is that the cut decides nothing in the
// output. fn derives everything it needs from lo — a generator jumps to
// lo's first draw, a pass over sorted keys finds its cursor by binary
// search — and the results are merged either in range order or by an
// order-free rule such as max.
func Parallel[T any](n int, fn func(k, lo, hi int) T) []T {
	m := (n + parallelRange - 1) / parallelRange
	out := make([]T, m)
	var next atomic.Int64
	work := func() {
		for k := int(next.Add(1) - 1); k < m; k = int(next.Add(1) - 1) {
			lo := k * parallelRange
			out[k] = fn(k, lo, min(lo+parallelRange, n))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), m); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}
