package rmi

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

var benchSink core.Bound

// BenchmarkRMILookup prices the lookup kernel alone — no table, no
// last-mile search — on the radix stage 1 every tuned rung builds, with
// the linear and the knot leaf, from a leaf array that fits L2 to one
// far beyond it. B/leaf and the mean bound width ride along so a layout
// change shows up beside its timing.
func BenchmarkRMILookup(b *testing.B) {
	for _, name := range []dataset.Name{dataset.Amzn, dataset.OSM} {
		keys := dataset.MustGenerate(name, dataset.DefaultN, 1)
		const nProbes = 1 << 16 // a power of two: the loops index it with a mask
		probes := dataset.Lookups(keys, nProbes, 7)
		for _, branch := range []int{4096, 65536, 262144} {
			for _, stage2 := range []ModelKind{ModelLinear, modelKnot} {
				idx, err := New(keys, Config{Stage1: modelRadix, Stage2: stage2, Branch: branch})
				if err != nil {
					b.Fatal(err)
				}
				width := 0
				for _, x := range probes {
					width += idx.Lookup(x).Width()
				}
				b.Run(fmt.Sprintf("%s/%v/B=%d/scalar", name, stage2, branch), func(b *testing.B) {
					for i := 0; b.Loop(); i++ {
						benchSink = idx.Lookup(probes[i&(nProbes-1)])
					}
					// After the loop: b.Loop resets metrics.
					b.ReportMetric(float64(idx.Arrays()[1].Elem), "B/leaf")
					b.ReportMetric(float64(width)/float64(len(probes)), "width")
				})
			}
		}
	}
}
