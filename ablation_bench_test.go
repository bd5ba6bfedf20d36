package repro

// Ablation benchmarks for the design choices DESIGN.md calls out:
// these probe *why* the headline results look the way they do, beyond
// the paper's own figures.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pgm"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/rs"
	"repro/internal/search"
)

// BenchmarkAblationRMIStage2 compares second-stage model classes at a
// fixed branching factor: the flexibility the paper credits the RMI
// with (Section 3.4, "Model types").
func BenchmarkAblationRMIStage2(b *testing.B) {
	for _, name := range []dataset.Name{dataset.Amzn, dataset.OSM} {
		e := benchEnv(b, name)
		for _, kind := range []rmi.ModelKind{rmi.ModelLinear, rmi.ModelLinearSpline} {
			cfg := rmi.Config{Stage1: rmi.ModelLinear, Stage2: kind, Branch: 1024}
			idx, err := rmi.New(e.Keys, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/stage2=%v", name, kind), func(b *testing.B) {
				b.ReportMetric(idx.AvgLog2Error(), "log2err")
				lookupLoop(b, e, idx, search.BinarySearch)
			})
		}
	}
}

// BenchmarkAblationRMIBranch sweeps the branching factor: inference
// cost stays flat while log2 error falls, the tradeoff CDFShop tunes.
func BenchmarkAblationRMIBranch(b *testing.B) {
	e := benchEnv(b, dataset.Amzn)
	for _, branch := range []int{64, 512, 4096, 32768} {
		cfg := rmi.Config{Stage1: rmi.ModelLinear, Stage2: rmi.ModelLinear, Branch: branch}
		idx, err := rmi.New(e.Keys, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("B=%d", branch), func(b *testing.B) {
			b.ReportMetric(idx.AvgLog2Error(), "log2err")
			lookupLoop(b, e, idx, search.BinarySearch)
		})
	}
}

// BenchmarkAblationRSKnobs isolates RadixSpline's two knobs: on skewed
// data (face), radix bits buy little because the prefix space
// collapses, while spline error still works.
func BenchmarkAblationRSKnobs(b *testing.B) {
	for _, name := range []dataset.Name{dataset.Amzn, dataset.Face} {
		e := benchEnv(b, name)
		for _, cfg := range []rs.Config{
			{SplineErr: 256, RadixBits: 8},
			{SplineErr: 256, RadixBits: 20},
			{SplineErr: 8, RadixBits: 8},
			{SplineErr: 8, RadixBits: 20},
		} {
			idx, err := rs.New(e.Keys, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%v", name, cfg), func(b *testing.B) {
				lookupLoop(b, e, idx, search.BinarySearch)
			})
		}
	}
}

// BenchmarkAblationPGMLevels shows the inter-layer search cost the
// paper's Section 3.4 discussion attributes PGM's slowdown to: as
// epsilon shrinks, levels multiply and each adds a dependent search.
func BenchmarkAblationPGMLevels(b *testing.B) {
	e := benchEnv(b, dataset.OSM)
	for _, eps := range []int{4, 16, 64, 256, 1024} {
		idx, err := pgm.New(e.Keys, eps)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("eps=%d", eps), func(b *testing.B) {
			b.ReportMetric(float64(len(idx.Arrays())/3), "levels") // three arrays a level, then the margins
			b.ReportMetric(float64(idx.NumSegments()), "segments")
			lookupLoop(b, e, idx, search.BinarySearch)
		})
	}
}

// BenchmarkAblationLastMileCrossover locates the bound width where
// linear search overtakes binary search — the threshold behind the
// paper's Figure 11 observation that binary wins at realistic widths.
func BenchmarkAblationLastMileCrossover(b *testing.B) {
	e := benchEnv(b, dataset.Amzn)
	for _, width := range []int{4, 8, 16, 32, 64, 256} {
		// Fixed-width bounds centred on the true position.
		bounds := make([]core.Bound, len(e.Lookups))
		for i, x := range e.Lookups {
			lb := core.LowerBound(e.Keys, x)
			bounds[i] = core.BoundAround(lb, width/2, width/2, len(e.Keys))
		}
		for _, kind := range []search.Kind{search.Binary, search.Linear} {
			fn := search.ByKind(kind)
			b.Run(fmt.Sprintf("w=%d/%s", width, kind), func(b *testing.B) {
				var sum uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i % len(e.Lookups)
					pos := fn(e.Keys, e.Lookups[j], bounds[j])
					sum += e.Payloads[pos%len(e.Payloads)]
				}
				_ = sum
			})
		}
	}
}

// BenchmarkAblationSubsetStride verifies the subset-insertion size
// knob's latency cost on the B-Tree: each doubling of stride halves
// size but adds one binary-search step.
func BenchmarkAblationSubsetStride(b *testing.B) {
	e := benchEnv(b, dataset.Wiki)
	for _, nb := range registry.Sweep("BTree", e.Keys) {
		idx, err := nb.Builder.Build(e.Keys)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(nb.Label, func(b *testing.B) {
			lookupLoop(b, e, idx, search.BinarySearch)
		})
	}
}
