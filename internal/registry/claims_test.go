package registry

import (
	"testing"

	"repro/internal/dataset"
)

// TestFig13SizeBuysLog2Error is the paper's Figure 13 finding as a
// claim: within each learned family, a larger index is a more accurate
// one. Walking the RMI, PGM and RS sweeps from small to large on every
// dataset, SizeBytes never falls and AvgLog2Error never rises. It runs
// at 200k keys, where the 120 builds take about 1.2 s on two cores; its
// budget is 5 s.
func TestFig13SizeBuysLog2Error(t *testing.T) {
	for _, ds := range dataset.All() {
		keys := dataset.MustGenerate(ds, 200_000, 1)
		for _, family := range []string{"RMI", "PGM", "RS"} {
			prevSize, prevLog2, prevLabel := 0, 0.0, ""
			for i, nb := range Sweep(family, keys) {
				idx, err := nb.Builder.Build(keys)
				if err != nil {
					t.Fatalf("%s %s on %s: %v", family, nb.Label, ds, err)
				}
				size := idx.SizeBytes()
				log2 := idx.(interface{ AvgLog2Error() float64 }).AvgLog2Error()
				if i > 0 && size < prevSize {
					t.Errorf("%s on %s: %s is %d B, smaller than %s's %d B", family, ds, nb.Label, size, prevLabel, prevSize)
				}
				if i > 0 && log2 > prevLog2 {
					t.Errorf("%s on %s: %s has log2 error %.4f, above %s's %.4f", family, ds, nb.Label, log2, prevLabel, prevLog2)
				}
				prevSize, prevLog2, prevLabel = size, log2, nb.Label
			}
		}
	}
}
