package registry

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestRetainedHeapMatchesSizeBytes holds PGM's and RS's SizeBytes to
// the heap a build retains, at every rung of their ladders over the
// four datasets at 200k keys: within 10 % plus 4 KiB either way, so an
// array with spare capacity, or one SizeBytes leaves out, fails with
// its family and rung named. It builds on one goroutine, so the heap
// grows by nothing but the build.
//
// One rung is allowed one page more. Go's allocator rounds an object
// over 32 KiB up to whole 8 KiB pages, and RS's radix table has 2^r+1
// two-byte entries: at r=14 it is 32,770 bytes and takes 40,960, so
// that rung retains 1.20–1.25x its SizeBytes on amzn, osm and wiki with
// no spare capacity in any array.
func TestRetainedHeapMatchesSizeBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	heap := func() int64 {
		runtime.GC() // twice: the first leaves pooled objects to the second
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, ds := range dataset.All() {
		keys := dataset.MustGenerate(ds, 200_000, 1)
		for _, family := range []string{"PGM", "RS"} {
			for _, nb := range Sweep(family, keys) {
				before := heap()
				idx, err := nb.Builder.Build(keys)
				if err != nil {
					t.Fatalf("%s %s on %s: %v", family, nb.Label, ds, err)
				}
				retained := heap() - before
				size := int64(idx.SizeBytes())
				runtime.KeepAlive(idx)
				allow := size/10 + 4096
				if family == "RS" && strings.HasSuffix(nb.Label, ",r=14") {
					allow += 8192
				}
				if d := retained - size; d > allow || -d > allow {
					t.Errorf("%s %s on %s: retains %d bytes, SizeBytes %d (%.2fx)", family, nb.Label, ds, retained, size, float64(retained)/float64(size))
				}
			}
		}
	}
}
