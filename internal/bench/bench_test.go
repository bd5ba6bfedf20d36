package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/search"
)

// tiny keeps harness tests fast; the real experiments scale via
// Options and the CLI.
var tiny = Options{N: 4000, Lookups: 400, Seed: 7}

func TestEnvChecksum(t *testing.T) {
	e, err := NewEnv(dataset.Amzn, 2000, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := e.checksum()
	idx := mustBS(e)
	m := MeasureWarm(e, idx, search.BinarySearch)
	if m.checksum != want {
		t.Fatalf("warm checksum %d != %d", m.checksum, want)
	}
	cold := MeasureCold(e, idx, search.BinarySearch, 50)
	_ = cold // cold measures a prefix of the workload; only validity of run matters
	fenced := measureFenced(e, idx, search.BinarySearch)
	if fenced.NsPerLookup <= 0 {
		t.Fatal("fenced measurement empty")
	}
}

func TestMeasureWarmAllFamilies(t *testing.T) {
	e, err := NewEnv(dataset.Wiki, 3000, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := e.checksum()
	families := append(append([]string{}, registry.ParetoFamilies...), "FST", "Wormhole", "RobinHash", "CuckooMap", "BS")
	for _, family := range families {
		nb, ok := registry.Builder(family, e.Keys)
		if !ok {
			t.Fatalf("no sweep for %s", family)
		}
		idx, err := nb.Builder.Build(e.Keys)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		m := MeasureWarm(e, idx, search.BinarySearch)
		if m.checksum != want {
			t.Fatalf("%s: checksum %d != %d (wrong lookup results)", family, m.checksum, want)
		}
		if m.NsPerLookup <= 0 {
			t.Fatalf("%s: non-positive latency", family)
		}
	}
}

func TestThroughputScalesOrRuns(t *testing.T) {
	e, err := NewEnv(dataset.Amzn, 5000, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := midVariant(e, "RMI")
	if idx == nil {
		t.Fatal("no RMI variant")
	}
	t1 := measureThroughput(e, idx, search.BinarySearch, 1, false)
	tn := measureThroughput(e, idx, search.BinarySearch, 4, false)
	if t1 <= 0 || tn <= 0 {
		t.Fatal("non-positive throughput")
	}
}

func TestBestVariant(t *testing.T) {
	e, err := NewEnv(dataset.Amzn, 3000, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Scoring by size must pick the smallest configuration.
	nb, idx, best := BestVariant(e, "PGM", func(e *Env, idx core.Index) float64 {
		return float64(idx.SizeBytes())
	})
	if idx == nil || nb.Label == "" {
		t.Fatal("no variant selected")
	}
	for _, other := range registry.Sweep("PGM", e.Keys) {
		oi, err := other.Builder.Build(e.Keys)
		if err != nil {
			t.Fatal(err)
		}
		if float64(oi.SizeBytes()) < best {
			t.Fatalf("variant %s (%d B) smaller than selected best (%f)",
				other.Label, oi.SizeBytes(), best)
		}
	}
}

func TestExperimentSmoke(t *testing.T) {
	var out strings.Builder
	for _, name := range []string{"table1", "fig6", "table2", "fig13"} {
		out.WriteString(renderCatalog(t, name, tiny))
	}
	for _, want := range []string{"Wormhole", "cdf", "fastest variant", "log2err"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in experiment output", want)
		}
	}
}

func TestCollectCounters(t *testing.T) {
	e, err := NewEnv(dataset.Amzn, 3000, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := countersFromEnv(e, []string{"RMI", "BTree"})
	if len(rows) < 10 {
		t.Fatalf("only %d counter rows", len(rows))
	}
	for _, r := range rows {
		if r.nsPerLookup <= 0 || r.instructions <= 0 {
			t.Fatalf("empty counters: %+v", r)
		}
	}
}

func TestSweepSpansSizes(t *testing.T) {
	e, err := NewEnv(dataset.OSM, 20000, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range registry.ParetoFamilies {
		sweep := registry.Sweep(family, e.Keys)
		first, err := sweep[0].Builder.Build(e.Keys)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		last, err := sweep[len(sweep)-1].Builder.Build(e.Keys)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if first.SizeBytes() >= last.SizeBytes() {
			t.Errorf("%s: sweep not ordered small->large (%d >= %d)",
				family, first.SizeBytes(), last.SizeBytes())
		}
	}
}

func TestMaxThreads(t *testing.T) {
	ts := maxThreads()
	if len(ts) == 0 || ts[0] != 1 {
		t.Fatalf("maxThreads = %v", ts)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatalf("not increasing: %v", ts)
		}
	}
}

// BenchmarkFig12_Metrics is Figure 12: simulated performance counters
// per structure (reported as extra metrics alongside ns/op).
func BenchmarkFig12_Metrics(b *testing.B) {
	for _, name := range []dataset.Name{dataset.Amzn, dataset.OSM} {
		e, err := NewEnv(name, 50_000, 5_000, 42)
		if err != nil {
			b.Fatal(err)
		}
		rows := countersFromEnv(e, []string{"RMI", "PGM", "RS", "BTree", "ART"})
		for _, r := range rows[:min(len(rows), 10)] {
			b.Run(fmt.Sprintf("%s/%s/%s", name, r.family, r.label), func(b *testing.B) {
				b.ReportMetric(r.cacheMisses, "cmiss/op")
				b.ReportMetric(r.branchMisses, "brmiss/op")
				b.ReportMetric(r.instructions, "instr/op")
				b.ReportMetric(r.log2Err, "log2err")
				for i := 0; i < b.N; i++ {
					_ = e.Keys[i%len(e.Keys)]
				}
			})
		}
	}
}

// BenchmarkFig16c_CacheMissRate reports the simulated cache misses per
// lookup used in Figure 16c.
func BenchmarkFig16c_CacheMissRate(b *testing.B) {
	e, err := NewEnv(dataset.Amzn, 50_000, 5_000, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range countersMidFromEnv(e, registry.Fig16Families) {
		b.Run(r.family, func(b *testing.B) {
			b.ReportMetric(r.cacheMisses, "cmiss/op")
			b.ReportMetric(r.cacheMisses/(r.nsPerLookup*1e-9)/1e6, "Mmiss/op/s")
			for i := 0; i < b.N; i++ {
			}
		})
	}
}
