package bench

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fast"
	"repro/internal/perfsim"
	"repro/internal/rbs"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/search"
	"repro/internal/stats"
)

// The paper's experiments, registered in figure order. Each returns
// typed report.Tables; rendering belongs to the report sinks.
func init() {
	register(Experiment{"table1", "capability matrix", table1})
	register(Experiment{"fig6", "dataset CDFs", fig6})
	register(Experiment{"fig7", "Pareto size/performance sweep, 4 datasets", fig7})
	register(Experiment{"fig8", "string structures (FST, Wormhole) on integers", fig8})
	register(Experiment{"table2", "fastest variants vs hash tables", table2})
	register(Experiment{"fig9", "dataset size scaling 1x..4x", fig9})
	register(Experiment{"fig10", "32-bit vs 64-bit keys", fig10})
	register(Experiment{"fig11", "last-mile search functions", fig11})
	register(Experiment{"fig12", "lookup time vs explanatory metrics", fig12})
	register(Experiment{"regress", "Section 4.3 OLS analysis", regress})
	register(Experiment{"fig13", "size vs log2 error (compression view)", fig13})
	register(Experiment{"fig14", "warm vs cold cache", fig14})
	register(Experiment{"fig15", "memory-fence (serialized) lookups", fig15})
	register(Experiment{"fig16a", "threads vs throughput", fig16a})
	register(Experiment{"fig16b", "size vs throughput at max threads", fig16b})
	register(Experiment{"fig16c", "cache misses per lookup per second", fig16c})
	register(Experiment{"fig17", "build times at 1x..4x scale", fig17})
}

// table1 reports the capability matrix of Table 1 (static facts about
// the implemented structures).
func table1(r *Run) ([]report.Table, error) {
	t := report.New("table1", "Table 1: search techniques evaluated").
		Dims("Method", "Updates", "Ordered", "Type")
	rows := [][4]string{
		{"PGM", "Yes", "Yes", "Learned"},
		{"RS", "No", "Yes", "Learned"},
		{"RMI", "No", "Yes", "Learned"},
		{"BTree", "Yes", "Yes", "Tree"},
		{"IBTree", "Yes", "Yes", "Tree"},
		{"FAST", "No", "Yes", "Tree"},
		{"ART", "Yes", "Yes", "Trie"},
		{"FST", "No", "Yes", "Trie"},
		{"Wormhole", "Yes", "Yes", "Hybrid hash/trie"},
		{"CuckooMap", "Yes", "No", "Hash"},
		{"RobinHash", "Yes", "No", "Hash"},
		{"RBS", "No", "Yes", "Lookup table"},
		{"BS", "No", "Yes", "Binary search"},
	}
	for _, row := range rows {
		if r.familyAllowed(row[0]) {
			t.Row([]string{row[0], row[1], row[2], row[3]})
		}
	}
	return []report.Table{*t}, nil
}

// fig6 reports CDF samples for each dataset (Figure 6).
func fig6(r *Run) ([]report.Table, error) {
	t := report.New("fig6", "Figure 6: dataset CDFs (normalized key -> relative position)").
		Dims("data").
		Float("key", "norm", 3).
		Float("cdf", "frac", 3)
	for _, name := range r.datasets(dataset.All()) {
		e, err := r.env(name)
		if err != nil {
			return nil, err
		}
		xs, ys := dataset.CDF(e.Keys, 21)
		minK, maxK := float64(xs[0]), float64(xs[len(xs)-1])
		for i := range xs {
			nk := 0.0
			if maxK > minK {
				nk = (float64(xs[i]) - minK) / (maxK - minK)
			}
			t.Row([]string{string(name)}, nk, ys[i])
		}
	}
	return []report.Table{*t}, nil
}

// paretoSchema is the shared shape of the size-vs-latency sweeps.
func paretoSchema(experiment, title string) *report.Table {
	return report.New(experiment, title).
		Dims("data", "index", "config").
		Float("size(MB)", "MB", 4).
		Float("ns/lookup", "ns", 1)
}

// fig7 reports the Pareto sweep of Figure 7: size vs warm lookup time
// for every structure family on every dataset, plus the BS baseline.
func fig7(r *Run) ([]report.Table, error) {
	t := paretoSchema("fig7", "Figure 7: performance/size tradeoffs (warm cache, tight loop)").
		Notef("BS rows are the size-0 binary-search baseline")
	for _, name := range r.datasets(dataset.All()) {
		e, err := r.env(name)
		if err != nil {
			return nil, err
		}
		if r.familyAllowed("BS") {
			bs := MeasureWarm(e, mustBS(e), search.BinarySearch)
			t.Row([]string{string(name), "BS", ""}, 0, bs.NsPerLookup)
		}
		want := e.checksum()
		for _, family := range r.families(registry.ParetoFamilies) {
			for _, nb := range registry.Sweep(family, e.Keys) {
				idx, err := nb.Builder.Build(e.Keys)
				if err != nil {
					continue
				}
				m := MeasureWarm(e, idx, search.BinarySearch)
				if m.checksum != want {
					return nil, fmt.Errorf("%s: %s %s on %s found other payloads than LowerBound", t.Experiment, family, nb.Label, name)
				}
				t.Row([]string{string(name), family, nb.Label}, MB(idx.SizeBytes()), m.NsPerLookup)
			}
		}
	}
	return []report.Table{*t}, nil
}

// fig8 reports the string-structure comparison of Figure 8 on amzn and
// face: FST and Wormhole against RMI and BTree.
func fig8(r *Run) ([]report.Table, error) {
	t := paretoSchema("fig8", "Figure 8: structures designed for strings, on integer keys").
		Notef("BS rows are the size-0 binary-search baseline")
	for _, name := range r.datasets([]dataset.Name{dataset.Amzn, dataset.Face}) {
		e, err := r.env(name)
		if err != nil {
			return nil, err
		}
		if r.familyAllowed("BS") {
			bs := MeasureWarm(e, mustBS(e), search.BinarySearch)
			t.Row([]string{string(name), "BS", ""}, 0, bs.NsPerLookup)
		}
		want := e.checksum()
		for _, family := range r.families(registry.StringFamilies) {
			for _, nb := range registry.Sweep(family, e.Keys) {
				idx, err := nb.Builder.Build(e.Keys)
				if err != nil {
					continue
				}
				m := MeasureWarm(e, idx, search.BinarySearch)
				if m.checksum != want {
					return nil, fmt.Errorf("%s: %s %s on %s found other payloads than LowerBound", t.Experiment, family, nb.Label, name)
				}
				t.Row([]string{string(name), family, nb.Label}, MB(idx.SizeBytes()), m.NsPerLookup)
			}
		}
	}
	return []report.Table{*t}, nil
}

// table2 reports the fastest variant of each structure against the
// two hashing techniques on amzn (Table 2).
func table2(r *Run) ([]report.Table, error) {
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	t := report.New("table2", "Table 2: fastest variant of each index vs hashing (amzn)").
		Dims("Method", "config").
		Float("ns/lookup", "ns", 1).
		Float("size(MB)", "MB", 4)
	for _, family := range r.families(registry.Table2Families) {
		nb, idx, ns := BestVariant(e, family, func(e *Env, idx core.Index) float64 {
			return MeasureWarm(e, idx, search.BinarySearch).NsPerLookup
		})
		if idx == nil {
			continue
		}
		t.Row([]string{family, nb.Label}, ns, MB(idx.SizeBytes()))
	}
	return []report.Table{*t}, nil
}

// fig9 reports the dataset-size scaling of Figure 9: amzn at 1x..4x.
func fig9(r *Run) ([]report.Table, error) {
	o := r.options
	t := report.New("fig9", "Figure 9: performance/size across dataset sizes (amzn)").
		Dims("keys", "index", "config").
		Float("size(MB)", "MB", 4).
		Float("ns/lookup", "ns", 1)
	for mult := 1; mult <= 4; mult++ {
		e, err := r.envAt(dataset.Amzn, o.N*mult, o.Lookups)
		if err != nil {
			return nil, err
		}
		for _, family := range r.families([]string{"RMI", "PGM", "RS", "BTree"}) {
			for _, nb := range registry.Sweep(family, e.Keys) {
				idx, err := nb.Builder.Build(e.Keys)
				if err != nil {
					continue
				}
				m := MeasureWarm(e, idx, search.BinarySearch)
				t.Row([]string{strconv.Itoa(o.N * mult), family, nb.Label},
					MB(idx.SizeBytes()), m.NsPerLookup)
			}
		}
	}
	return []report.Table{*t}, nil
}

// fig10 reports the 32-bit vs 64-bit key comparison of Figure 10 on
// amzn. Learned structures run on rank-preserving 32-bit rescalings
// widened back to uint64 (the paper's RMI/RS implementations widen to
// float64 anyway); BTree and FAST additionally run native 32-bit
// instantiations where key packing matters architecturally.
func fig10(r *Run) ([]report.Table, error) {
	o := r.options
	e64, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	k32 := dataset.To32(e64.Keys)
	widened := make([]core.Key, len(k32))
	for i, k := range k32 {
		widened[i] = core.Key(k)
	}
	e32 := &Env{Dataset: "amzn32", Keys: widened, Payloads: e64.Payloads,
		Lookups: dataset.Lookups(widened, o.Lookups, o.Seed)}

	t := report.New("fig10", "Figure 10: 32-bit vs 64-bit keys (amzn)").
		Dims("index", "bits", "config").
		Float("size(MB)", "MB", 4).
		Float("ns/lookup", "ns", 1)
	families := r.families([]string{"RMI", "RS", "PGM", "BTree", "FAST"})
	for _, family := range families {
		for _, nb := range registry.Sweep(family, e64.Keys) {
			idx, err := nb.Builder.Build(e64.Keys)
			if err != nil {
				continue
			}
			m := MeasureWarm(e64, idx, search.BinarySearch)
			t.Row([]string{family, "64", nb.Label}, MB(idx.SizeBytes()), m.NsPerLookup)
		}
		for _, nb := range registry.Sweep(family, e32.Keys) {
			idx, err := nb.Builder.Build(e32.Keys)
			if err != nil {
				continue
			}
			m := MeasureWarm(e32, idx, search.BinarySearch)
			size := idx.SizeBytes()
			if family == "BTree" || family == "FAST" {
				// Native 32-bit trees halve key storage; report the
				// native footprint measured below.
				size = native32Size(family, k32)
			}
			t.Row([]string{family, "32", nb.Label}, MB(size), m.NsPerLookup)
		}
	}
	// Native 32-bit lookup loops for the tree structures.
	native := report.New("fig10", "Figure 10 (cont.): native 32-bit tree loops (Ceiling only)").
		Dims("index").
		Float("ns/op", "ns", 1)
	if r.familyAllowed("BTree") {
		native.Row([]string{"BTree32"}, native32BTreeNs(k32, e32))
	}
	if r.familyAllowed("FAST") {
		native.Row([]string{"FAST32"}, native32FASTNs(k32, e32))
	}
	return []report.Table{*t, *native}, nil
}

func native32Size(family string, k32 []core.Key32) int {
	switch family {
	case "BTree":
		t := btree.NewTree(k32, false)
		return t.SizeBytes()
	case "FAST":
		t, err := fast.NewTree(k32)
		if err != nil {
			return 0
		}
		return t.SizeBytes()
	}
	return 0
}

func native32BTreeNs(k32 []core.Key32, e *Env) float64 {
	t := btree.NewTree(k32, false)
	lookups := make([]core.Key32, len(e.Lookups))
	for i, x := range e.Lookups {
		lookups[i] = core.Key32(x)
	}
	var sum int64
	start := time.Now()
	for _, x := range lookups {
		sum += int64(t.Ceiling(x, nil))
	}
	elapsed := time.Since(start)
	_ = sum
	return float64(elapsed.Nanoseconds()) / float64(len(lookups))
}

func native32FASTNs(k32 []core.Key32, e *Env) float64 {
	t, err := fast.NewTree(k32)
	if err != nil {
		return 0
	}
	lookups := make([]core.Key32, len(e.Lookups))
	for i, x := range e.Lookups {
		lookups[i] = core.Key32(x)
	}
	var sum int
	start := time.Now()
	for _, x := range lookups {
		sum += t.Ceiling(x, nil)
	}
	elapsed := time.Since(start)
	_ = sum
	return float64(elapsed.Nanoseconds()) / float64(len(lookups))
}

// fig11 reports the last-mile search comparison of Figure 11: binary,
// linear and interpolation search for each learned structure on amzn
// and osm.
func fig11(r *Run) ([]report.Table, error) {
	t := report.New("fig11", "Figure 11: last-mile search functions").
		Dims("data", "index", "config", "search").
		Float("ns/lookup", "ns", 1)
	for _, name := range r.datasets([]dataset.Name{dataset.Amzn, dataset.OSM}) {
		e, err := r.env(name)
		if err != nil {
			return nil, err
		}
		for _, family := range r.families([]string{"RMI", "PGM", "RS", "RBS"}) {
			for _, nb := range registry.Sweep(family, e.Keys) {
				idx, err := nb.Builder.Build(e.Keys)
				if err != nil {
					continue
				}
				for _, kind := range []search.Kind{search.Binary, search.Linear, search.Interpolation} {
					m := MeasureWarm(e, idx, search.ByKind(kind))
					t.Row([]string{string(name), family, nb.Label, kind.String()}, m.NsPerLookup)
				}
			}
		}
	}
	return []report.Table{*t}, nil
}

// counterRecord is one structure+configuration sample of Figure 12 /
// Section 4.3: measured lookup latency alongside simulated counters.
type counterRecord struct {
	dataset      dataset.Name
	family       string
	label        string
	sizeMB       float64
	log2Err      float64
	nsPerLookup  float64
	cacheMisses  float64
	branchMisses float64
	instructions float64
}

// countersFromEnv measures warm lookup latency and simulated counters
// for every configuration of the given families on an environment —
// the catalog experiments build theirs through Run.envAt so dataset
// checksums land in the run metadata.
func countersFromEnv(e *Env, families []string) []counterRecord {
	var rows []counterRecord
	for _, family := range families {
		for _, nb := range registry.Sweep(family, e.Keys) {
			if row, ok := counterRow(e, family, nb, 3); ok {
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// counterRow builds one configuration and reads its simulated counters
// beside the fastest of reps warm timings; ok is false when the
// configuration does not build or has no traced form.
func counterRow(e *Env, family string, nb registry.NamedBuilder, reps int) (counterRecord, bool) {
	idx, err := nb.Builder.Build(e.Keys)
	if err != nil {
		return counterRecord{}, false
	}
	m := perfsim.New(perfsim.CacheFor(len(e.Keys)))
	tr, ok := perfsim.For(idx, m, e.Keys)
	if !ok {
		return counterRecord{}, false
	}
	meas := measureWarmBest(e, idx, reps)
	// Warm the simulated cache, then measure.
	for _, x := range e.Lookups {
		tr.Lookup(x)
	}
	m.ResetCounters()
	for _, x := range e.Lookups {
		tr.Lookup(x)
	}
	c := m.Counters()
	nl := float64(len(e.Lookups))
	return counterRecord{
		dataset:      e.Dataset,
		family:       family,
		label:        nb.Label,
		sizeMB:       MB(idx.SizeBytes()),
		log2Err:      avgLog2Width(e, idx),
		nsPerLookup:  meas.NsPerLookup,
		cacheMisses:  float64(c.CacheMisses) / nl,
		branchMisses: float64(c.BranchMisses) / nl,
		instructions: float64(c.Instructions) / nl,
	}, true
}

// counterTable renders CounterRows into the Figure 12 table shape.
func counterTable(t *report.Table, rows []counterRecord) {
	for _, cr := range rows {
		t.Row([]string{string(cr.dataset), cr.family, cr.label},
			cr.sizeMB, cr.log2Err, cr.nsPerLookup,
			cr.cacheMisses, cr.branchMisses, cr.instructions)
	}
}

// fig12 reports lookup time against each candidate explanatory metric
// (Figure 12) for amzn and osm.
func fig12(r *Run) ([]report.Table, error) {
	t := report.New("fig12", "Figure 12: lookup time vs candidate explanatory metrics").
		Dims("data", "index", "config").
		Float("size(MB)", "MB", 4).
		Float("log2err", "log2", 2).
		Float("ns/lookup", "ns", 1).
		Float("c-miss", "misses/op", 2).
		Float("br-miss", "misses/op", 2).
		Float("instr", "instr/op", 1)
	for _, name := range r.datasets([]dataset.Name{dataset.Amzn, dataset.OSM}) {
		e, err := r.env(name)
		if err != nil {
			return nil, err
		}
		counterTable(t, countersFromEnv(e, r.families(registry.Fig12Families)))
	}
	return []report.Table{*t}, nil
}

// measureWarmBest returns the fastest of reps warm measurements,
// suppressing scheduler noise for the regression analysis.
func measureWarmBest(e *Env, idx core.Index, reps int) Measurement {
	best := MeasureWarm(e, idx, search.BinarySearch)
	for r := 1; r < reps; r++ {
		if m := MeasureWarm(e, idx, search.BinarySearch); m.NsPerLookup < best.NsPerLookup {
			best = m
		}
	}
	return best
}

// regress runs the Section 4.3 analysis: an OLS of lookup time on
// cache misses, branch misses and instruction count across every
// structure and dataset, and a second model adding size and log2
// error to confirm they add no significant explanatory power.
//
// The paper's R² ≈ 0.95 arises in a memory-bound regime (200M keys vs
// a 27 MB LLC); the dataset size is floored here so the working set
// exceeds the host LLC, otherwise lookup latency decouples from memory
// behaviour and the regression degenerates.
func regress(r *Run) ([]report.Table, error) {
	o := r.options
	if o.N < 2_000_000 {
		o.N = 2_000_000
	}
	if o.Lookups < 100_000 {
		o.Lookups = 100_000
	}
	var rows []counterRecord
	for _, name := range r.datasets(dataset.All()) {
		// envAt so the floored scale and its dataset checksums are
		// recorded in the run metadata.
		e, err := r.envAt(name, o.N, o.Lookups)
		if err != nil {
			return nil, err
		}
		rows = append(rows, countersFromEnv(e, r.families(registry.Fig12Families))...)
	}
	y := make([]float64, len(rows))
	cm := make([]float64, len(rows))
	bm := make([]float64, len(rows))
	in := make([]float64, len(rows))
	sz := make([]float64, len(rows))
	le := make([]float64, len(rows))
	for i, cr := range rows {
		y[i] = cr.nsPerLookup
		cm[i] = cr.cacheMisses
		bm[i] = cr.branchMisses
		in[i] = cr.instructions
		sz[i] = cr.sizeMB
		le[i] = cr.log2Err
	}
	t := report.New("regress", "Section 4.3 regression: lookup time ~ cache misses + branch misses + instructions").
		Dims("model", "term").
		Float("coef", "", 4).
		Float("std", "beta", 3).
		Float("p", "", 4)
	reg, err := stats.OLS(y, []string{"cache_misses", "branch_misses", "instructions"}, cm, bm, in)
	if err != nil {
		return nil, err
	}
	regressRows(t, "counters", reg)
	reg2, err := stats.OLS(y, []string{"cache_misses", "branch_misses", "instructions", "size_mb", "log2_err"},
		cm, bm, in, sz, le)
	if err != nil {
		return nil, err
	}
	regressRows(t, "extended", reg2)
	t.Notef("extended model adds size and log2 error to confirm they carry no extra explanatory power")
	t.Notef("measured at n=%d, lookups=%d (floored so the working set exceeds the LLC; see doc comment)", o.N, o.Lookups)
	return []report.Table{*t}, nil
}

// regressRows appends one fitted model's terms and its fit summary.
func regressRows(t *report.Table, model string, reg *stats.Regression) {
	for j, name := range reg.Names {
		t.Row([]string{model, name}, reg.Coef[j+1], reg.StdCoef[j], reg.PValues[j])
	}
	t.Notef("%s: R²=%.3f n=%d df=%d", model, reg.R2, reg.N, reg.DF)
}

// fig13 reports the compression view of Figure 13: size vs log2 error
// for the learned structures and the BTree.
func fig13(r *Run) ([]report.Table, error) {
	t := report.New("fig13", "Figure 13: size vs log2 error (learned indexes as compression)").
		Dims("data", "index", "config").
		Float("size(MB)", "MB", 4).
		Float("log2err", "log2", 2)
	for _, name := range r.datasets([]dataset.Name{dataset.Amzn, dataset.OSM}) {
		e, err := r.env(name)
		if err != nil {
			return nil, err
		}
		for _, family := range r.families([]string{"RS", "RMI", "PGM", "BTree"}) {
			for _, nb := range registry.Sweep(family, e.Keys) {
				idx, err := nb.Builder.Build(e.Keys)
				if err != nil {
					continue
				}
				t.Row([]string{string(name), family, nb.Label},
					MB(idx.SizeBytes()), avgLog2Width(e, idx))
			}
		}
	}
	return []report.Table{*t}, nil
}

// fig14 reports the warm/cold cache comparison of Figure 14 on amzn.
func fig14(r *Run) ([]report.Table, error) {
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	coldOps := r.options.Lookups / 20
	if coldOps < 50 {
		coldOps = 50
	}
	t := report.New("fig14", "Figure 14: warm vs cold cache (amzn)").
		Dims("index", "config").
		Float("size(MB)", "MB", 4).
		Float("warm(ns)", "ns", 1).
		Float("cold(ns)", "ns", 1)
	for _, family := range r.families([]string{"RMI", "RS", "PGM", "BTree", "FAST"}) {
		for _, nb := range registry.Sweep(family, e.Keys) {
			idx, err := nb.Builder.Build(e.Keys)
			if err != nil {
				continue
			}
			warm := MeasureWarm(e, idx, search.BinarySearch)
			cold := MeasureCold(e, idx, search.BinarySearch, coldOps)
			t.Row([]string{family, nb.Label},
				MB(idx.SizeBytes()), warm.NsPerLookup, cold.NsPerLookup)
		}
	}
	return []report.Table{*t}, nil
}

// fig15 reports the fence comparison of Figure 15 on amzn.
func fig15(r *Run) ([]report.Table, error) {
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	t := report.New("fig15", "Figure 15: serialized (\"fenced\") vs pipelined lookups (amzn)").
		Dims("index", "config").
		Float("size(MB)", "MB", 4).
		Float("no-fence", "ns", 1).
		Float("fence", "ns", 1)
	for _, family := range r.families([]string{"RMI", "RS", "PGM", "BTree", "FAST"}) {
		for _, nb := range registry.Sweep(family, e.Keys) {
			idx, err := nb.Builder.Build(e.Keys)
			if err != nil {
				continue
			}
			plain := MeasureWarm(e, idx, search.BinarySearch)
			fenced := measureFenced(e, idx, search.BinarySearch)
			t.Row([]string{family, nb.Label},
				MB(idx.SizeBytes()), plain.NsPerLookup, fenced.NsPerLookup)
		}
	}
	return []report.Table{*t}, nil
}

// fig16a reports multithreaded throughput against thread count, with
// and without the serialized loop, at a mid-size configuration.
func fig16a(r *Run) ([]report.Table, error) {
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	t := report.New("fig16a", "Figure 16a: threads vs throughput (amzn, mid-size configs)").
		Dims("index", "threads").
		Float("Mlookups/s", "M/s", 2).
		Float("Mlookups/s(fence)", "M/s", 2)
	for _, family := range r.families(registry.Fig16Families) {
		idx := midVariant(e, family)
		if idx == nil {
			continue
		}
		for _, threads := range maxThreads() {
			plain := measureThroughput(e, idx, search.BinarySearch, threads, false)
			fenced := measureThroughput(e, idx, search.BinarySearch, threads, true)
			t.Row([]string{family, strconv.Itoa(threads)}, plain/1e6, fenced/1e6)
		}
	}
	return []report.Table{*t}, nil
}

// midVariant picks the middle configuration of a family's sweep (the
// paper fixes ~50MB models for Figure 16a).
func midVariant(e *Env, family string) core.Index {
	nb, ok := registry.Builder(family, e.Keys)
	if !ok {
		return nil
	}
	idx, err := nb.Builder.Build(e.Keys)
	if err != nil {
		return nil
	}
	return idx
}

// fig16b reports size vs max-thread throughput.
func fig16b(r *Run) ([]report.Table, error) {
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	threads := maxThreads()
	maxT := threads[len(threads)-1]
	t := report.New("fig16b", "Figure 16b: size vs throughput at max threads (amzn)").
		Dims("index", "config").
		Float("size(MB)", "MB", 4).
		Float("Mlookups/s", "M/s", 2)
	for _, family := range r.families([]string{"RMI", "PGM", "RS", "BTree", "ART"}) {
		for _, nb := range registry.Sweep(family, e.Keys) {
			idx, err := nb.Builder.Build(e.Keys)
			if err != nil {
				continue
			}
			tp := measureThroughput(e, idx, search.BinarySearch, maxT, false)
			t.Row([]string{family, nb.Label}, MB(idx.SizeBytes()), tp/1e6)
		}
	}
	return []report.Table{*t}, nil
}

// fig16c reports simulated cache misses per lookup per second: the
// simulated misses-per-lookup of each structure divided by its
// measured lookup time.
func fig16c(r *Run) ([]report.Table, error) {
	t := report.New("fig16c", "Figure 16c: cache misses per lookup per second (simulated misses / measured ns)").
		Dims("index").
		Float("c-miss/op", "misses/op", 2).
		Float("ns/lookup", "ns", 1).
		Float("miss/op/s (M)", "M/s", 1)
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	for _, cr := range countersMidFromEnv(e, r.families(registry.Fig16Families)) {
		perSec := cr.cacheMisses / (cr.nsPerLookup * 1e-9) / 1e6
		t.Row([]string{cr.family}, cr.cacheMisses, cr.nsPerLookup, perSec)
	}
	return []report.Table{*t}, nil
}

// countersMidFromEnv is countersFromEnv restricted to each family's
// middle configuration.
func countersMidFromEnv(e *Env, families []string) []counterRecord {
	var rows []counterRecord
	for _, family := range families {
		if nb, ok := registry.Builder(family, e.Keys); ok {
			if row, ok := counterRow(e, family, nb, 1); ok {
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// fig17 reports single-threaded build times at 1x..4x dataset scale
// for the fastest-lookup variant of each structure (Figure 17). The
// paper's figure leaves tuning out; a store that picks a configuration
// per shard build and per major merge pays it every time, so tune(ms)
// prices resolving the built rung from its ladder — RMI's tuner run,
// nothing for the families whose ladders are fixed.
func fig17(r *Run) ([]report.Table, error) {
	o := r.options
	families := r.families([]string{"PGM", "RS", "RMI", "RBS", "ART", "BTree", "IBTree", "FAST", "FST", "Wormhole", "RobinHash"})
	t := report.New("fig17", "Figure 17: build times (fastest lookup variants, amzn)").
		Dims("index", "keys").
		Float("tune(ms)", "ms", 2).
		Float("build(ms)", "ms", 2)
	for mult := 1; mult <= 4; mult++ {
		e, err := r.envAt(dataset.Amzn, o.N*mult, o.Lookups)
		if err != nil {
			return nil, err
		}
		for _, family := range families {
			nb, idx, _ := BestVariant(e, family, func(e *Env, idx core.Index) float64 {
				return MeasureWarm(e, idx, search.BinarySearch).NsPerLookup
			})
			if idx == nil {
				continue
			}
			start := time.Now()
			registry.SweepEntry(family, nb.Label, e.Keys)
			tune := time.Since(start)
			_, dur, err := measureBuild(nb.Builder, e.Keys)
			if err != nil {
				continue
			}
			t.Row([]string{family, strconv.Itoa(o.N * mult)},
				float64(tune.Microseconds())/1000, float64(dur.Microseconds())/1000)
		}
	}
	return []report.Table{*t}, nil
}

func mustBS(e *Env) core.Index {
	idx, err := rbs.BinarySearchBuilder{}.Build(e.Keys)
	if err != nil {
		panic(err)
	}
	return idx
}
