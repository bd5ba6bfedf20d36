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
	bs, ok := midConfig(e, "BS")
	if !ok {
		t.Fatal("BS does not build")
	}
	m := MeasureWarm(e, bs.idx, search.BinarySearch)
	if m.checksum != want {
		t.Fatalf("warm checksum %d != %d", m.checksum, want)
	}
	if _, err := e.cold(bs, search.BinarySearch, 50); err != nil {
		t.Fatal(err)
	}
	if ns, err := e.fenced(bs, search.BinarySearch); err != nil || ns <= 0 {
		t.Fatalf("fenced: %v ns, %v", ns, err)
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
	c, ok := midConfig(e, "RMI")
	if !ok {
		t.Fatal("no RMI variant")
	}
	t1, err := measureThroughput(e, c, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := measureThroughput(e, c, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if t1 <= 0 || tn <= 0 {
		t.Fatal("non-positive throughput")
	}
}

// missIndex wraps an index and, for every third key, returns the empty
// bound one past the key's position: a bound that misses the key.
type missIndex struct {
	core.Index
	keys []core.Key
}

func (m missIndex) Lookup(x core.Key) core.Bound {
	if x%3 != 0 {
		return m.Index.Lookup(x)
	}
	pos := core.LowerBound(m.keys, x) + 1
	return core.Bound{Lo: pos, Hi: pos}
}

// TestPayloadCheckNamesTheConfig: an index whose bounds miss the key
// fails every checked pass — warm, cold, fenced, and the threaded
// passes fenced or not — and the error names the dataset, the family
// and the config.
func TestPayloadCheckNamesTheConfig(t *testing.T) {
	e, err := NewEnv(dataset.Amzn, 3000, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	good, ok := midConfig(e, "PGM")
	if !ok {
		t.Fatal("no PGM variant")
	}
	bad := good
	bad.idx = missIndex{good.idx, e.Keys}
	name := "PGM/" + good.Label + " on amzn"
	for pass, run := range map[string]func(config) (float64, error){
		"warm":            func(c config) (float64, error) { return e.warm(c, search.BinarySearch) },
		"cold":            func(c config) (float64, error) { return e.cold(c, search.BinarySearch, 100) },
		"fenced":          func(c config) (float64, error) { return e.fenced(c, search.BinarySearch) },
		"threaded":        func(c config) (float64, error) { return measureThroughput(e, c, 2, false) },
		"threaded fenced": func(c config) (float64, error) { return measureThroughput(e, c, 2, true) },
	} {
		if _, err := run(good); err != nil {
			t.Fatalf("%s: correct index failed the check: %v", pass, err)
		}
		if _, err := run(bad); err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: err = %v, want one naming %q", pass, err, name)
		}
	}
}

// TestBestVariant: the fastest variant is a configuration of the
// family's sweep, built as that label builds, with a positive checked
// time; every family of Table 2 yields one.
func TestBestVariant(t *testing.T) {
	e, err := NewEnv(dataset.Amzn, 3000, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range registry.Table2Families {
		nb, idx, ns, err := BestVariant(e, family)
		if err != nil {
			t.Fatal(err)
		}
		if idx == nil || ns <= 0 {
			t.Fatalf("%s: no variant selected (ns %f)", family, ns)
		}
		entry, ok := registry.SweepEntry(family, nb.Label, e.Keys)
		if !ok {
			t.Fatalf("%s: selected label %q is not in the sweep", family, nb.Label)
		}
		fresh, err := entry.Builder.Build(e.Keys)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.SizeBytes() != idx.SizeBytes() {
			t.Fatalf("%s %s: selected index is %d B, a fresh build %d B", family, nb.Label, idx.SizeBytes(), fresh.SizeBytes())
		}
	}
}

// TestLowestPicksTheMinimum: scored by size, and by size negated, the
// pick BestVariant makes is the smallest, and the largest,
// configuration of the family's sweep; the ladders run small to
// large, so neither the first nor the last is right both times.
func TestLowestPicksTheMinimum(t *testing.T) {
	e, err := NewEnv(dataset.Amzn, 3000, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sign := range []float64{1, -1} {
		score := func(c config) (float64, error) { return sign * float64(c.idx.SizeBytes()), nil }
		for _, family := range []string{"PGM", "RMI", "BTree"} {
			best, lo, err := lowest(e, family, score)
			if err != nil {
				t.Fatal(err)
			}
			if best.idx == nil || best.Label == "" {
				t.Fatalf("%s: no variant selected", family)
			}
			n := 0
			for other := range configs(e, []string{family}) {
				n++
				if v, _ := score(other); v < lo {
					t.Fatalf("%s, sign %v: variant %s scores %.0f, below selected %s (%.0f)",
						family, sign, other.Label, v, best.Label, lo)
				}
			}
			if n < 2 {
				t.Fatalf("%s: only %d configurations, the pick is not a choice", family, n)
			}
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
	rows, err := counters(e, []string{"RMI", "BTree"})
	if err != nil {
		t.Fatal(err)
	}
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
		rows, err := counters(e, []string{"RMI", "PGM", "RS", "BTree", "ART"})
		if err != nil {
			b.Fatal(err)
		}
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
	for _, family := range registry.Fig16Families {
		c, ok := midConfig(e, family)
		if !ok {
			continue
		}
		r, err := counterRow(e, c, 1)
		if err != nil {
			b.Fatal(err)
		}
		if r == nil {
			continue
		}
		b.Run(family, func(b *testing.B) {
			b.ReportMetric(r.cacheMisses, "cmiss/op")
			b.ReportMetric(r.cacheMisses/(r.nsPerLookup*1e-9)/1e6, "Mmiss/op/s")
			for i := 0; i < b.N; i++ {
			}
		})
	}
}
