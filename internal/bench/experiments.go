package bench

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fast"
	"repro/internal/perfsim"
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
	register(Experiment{"fig7", "Pareto size/performance sweep, 4 datasets",
		pareto("fig7", "Figure 7: performance/size tradeoffs (warm cache, tight loop)", dataset.All(), registry.ParetoFamilies)})
	register(Experiment{"fig8", "string structures (FST, Wormhole) on integers",
		pareto("fig8", "Figure 8: structures designed for strings, on integer keys", []dataset.Name{dataset.Amzn, dataset.Face}, registry.StringFamilies)})
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

// pareto returns the size vs warm lookup time sweep of Figures 7 and 8:
// each family's configurations on each dataset, after the size-0
// binary-search baseline (BS).
func pareto(experiment, title string, datasets []dataset.Name, families []string) func(*Run) ([]report.Table, error) {
	return func(r *Run) ([]report.Table, error) {
		t := report.New(experiment, title).
			Dims("data", "index", "config").
			Float("size(MB)", "MB", 4).
			Float("ns/lookup", "ns", 1).
			Notef("BS rows are the size-0 binary-search baseline")
		for _, name := range r.datasets(datasets) {
			e, err := r.env(name)
			if err != nil {
				return nil, err
			}
			for c := range configs(e, r.families(append([]string{"BS"}, families...))) {
				ns, err := e.warm(c, search.BinarySearch)
				if err != nil {
					return nil, err
				}
				t.Row([]string{string(name), c.family, c.Label}, MB(c.idx.SizeBytes()), ns)
			}
		}
		return []report.Table{*t}, nil
	}
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
		nb, idx, ns, err := BestVariant(e, family)
		if err != nil {
			return nil, err
		}
		if idx != nil {
			t.Row([]string{family, nb.Label}, ns, MB(idx.SizeBytes()))
		}
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
		for c := range configs(e, r.families([]string{"RMI", "PGM", "RS", "BTree"})) {
			ns, err := e.warm(c, search.BinarySearch)
			if err != nil {
				return nil, err
			}
			t.Row([]string{strconv.Itoa(o.N * mult), c.family, c.Label}, MB(c.idx.SizeBytes()), ns)
		}
	}
	return []report.Table{*t}, nil
}

// fig10 reports the 32-bit vs 64-bit key comparison of Figure 10 on
// amzn. Learned structures run on rank-preserving 32-bit rescalings
// widened back to uint64 (the paper's RMI/RS implementations widen to
// float64 anyway); BTree and FAST additionally run native 32-bit
// instantiations where key packing matters architecturally. Each row
// reports the size of the index it times; the native trees' sizes sit
// beside their times in the second table.
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
	natives := native32Trees(r, k32)

	t := report.New("fig10", "Figure 10: 32-bit vs 64-bit keys (amzn)").
		Dims("index", "bits", "config").
		Float("size(MB)", "MB", 4).
		Float("ns/lookup", "ns", 1)
	for _, family := range r.families([]string{"RMI", "RS", "PGM", "BTree", "FAST"}) {
		for _, e := range []*Env{e64, e32} {
			for c := range configs(e, []string{family}) {
				ns, err := e.warm(c, search.BinarySearch)
				if err != nil {
					return nil, err
				}
				bits := "64"
				if e == e32 {
					bits = "32"
				}
				t.Row([]string{family, bits, c.Label}, MB(c.idx.SizeBytes()), ns)
			}
		}
	}
	native := report.New("fig10", "Figure 10 (cont.): native 32-bit tree loops (Ceiling only)").
		Dims("index").
		Float("size(MB)", "MB", 4).
		Float("ns/op", "ns", 1)
	for _, family := range []string{"BTree", "FAST"} {
		if n, ok := natives[family]; ok {
			ns, err := e32.warmNative32(family+"32", n.ceil)
			if err != nil {
				return nil, err
			}
			native.Row([]string{family + "32"}, MB(n.size), ns)
		}
	}
	return []report.Table{*t, *native}, nil
}

// native32 is a native 32-bit tree of Figure 10: its footprint and its
// Ceiling.
type native32 struct {
	size int
	ceil func(core.Key32) int
}

// native32Trees builds the native 32-bit BTree and FAST over k32, each
// if the run's families allow it.
func native32Trees(r *Run, k32 []core.Key32) map[string]native32 {
	out := map[string]native32{}
	if r.familyAllowed("BTree") {
		t := btree.NewTree(k32, false)
		out["BTree"] = native32{t.SizeBytes(), func(x core.Key32) int { return t.Ceiling(x, nil) }}
	}
	if r.familyAllowed("FAST") {
		if t, err := fast.NewTree(k32); err == nil {
			out["FAST"] = native32{t.SizeBytes(), func(x core.Key32) int { return t.Ceiling(x, nil) }}
		}
	}
	return out
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
		for c := range configs(e, r.families([]string{"RMI", "PGM", "RS", "RBS"})) {
			for _, kind := range []search.Kind{search.Binary, search.Linear, search.Interpolation} {
				ns, err := e.warm(c, search.ByKind(kind))
				if err != nil {
					return nil, fmt.Errorf("%s search: %w", kind, err)
				}
				t.Row([]string{string(name), c.family, c.Label, kind.String()}, ns)
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

// counters measures checked warm lookup latency and simulated counters
// for every configuration of families on an environment — the catalog experiments build theirs through
// Run.envAt so dataset checksums land in the run metadata.
func counters(e *Env, families []string) ([]counterRecord, error) {
	var rows []counterRecord
	for c := range configs(e, families) {
		row, err := counterRow(e, c, 3)
		if err != nil {
			return nil, err
		}
		if row != nil {
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

// counterRow reads a built configuration's simulated counters beside
// the fastest of reps checked warm timings; the row is nil when the
// configuration has no traced form.
func counterRow(e *Env, c config, reps int) (*counterRecord, error) {
	m := perfsim.New(perfsim.CacheFor(len(e.Keys)))
	tr, ok := perfsim.For(c.idx, m, e.Keys)
	if !ok {
		return nil, nil
	}
	ns := math.Inf(1)
	for range reps {
		v, err := e.warm(c, search.BinarySearch)
		if err != nil {
			return nil, err
		}
		ns = min(ns, v)
	}
	// Warm the simulated cache, then measure.
	for _, x := range e.Lookups {
		tr.Lookup(x)
	}
	m.ResetCounters()
	for _, x := range e.Lookups {
		tr.Lookup(x)
	}
	cs := m.Counters()
	nl := float64(len(e.Lookups))
	return &counterRecord{
		dataset:      e.Dataset,
		family:       c.family,
		label:        c.Label,
		sizeMB:       MB(c.idx.SizeBytes()),
		log2Err:      avgLog2Width(e, c.idx),
		nsPerLookup:  ns,
		cacheMisses:  float64(cs.CacheMisses) / nl,
		branchMisses: float64(cs.BranchMisses) / nl,
		instructions: float64(cs.Instructions) / nl,
	}, nil
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
		rows, err := counters(e, r.families(registry.Fig12Families))
		if err != nil {
			return nil, err
		}
		for _, cr := range rows {
			t.Row([]string{string(cr.dataset), cr.family, cr.label}, cr.sizeMB, cr.log2Err,
				cr.nsPerLookup, cr.cacheMisses, cr.branchMisses, cr.instructions)
		}
	}
	return []report.Table{*t}, nil
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
		more, err := counters(e, r.families(registry.Fig12Families))
		if err != nil {
			return nil, err
		}
		rows = append(rows, more...)
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
		for c := range configs(e, r.families([]string{"RS", "RMI", "PGM", "BTree"})) {
			t.Row([]string{string(name), c.family, c.Label}, MB(c.idx.SizeBytes()), avgLog2Width(e, c.idx))
		}
	}
	return []report.Table{*t}, nil
}

// fig14 reports the warm/cold cache comparison of Figure 14 on amzn.
// The cold pass looks up a prefix of the workload, so only the warm one
// is payload-checked.
func fig14(r *Run) ([]report.Table, error) {
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	coldOps := max(r.options.Lookups/20, 50)
	t := report.New("fig14", "Figure 14: warm vs cold cache (amzn)").
		Dims("index", "config").
		Float("size(MB)", "MB", 4).
		Float("warm(ns)", "ns", 1).
		Float("cold(ns)", "ns", 1)
	for c := range configs(e, r.families([]string{"RMI", "RS", "PGM", "BTree", "FAST"})) {
		warm, err := e.warm(c, search.BinarySearch)
		if err != nil {
			return nil, err
		}
		cold := MeasureCold(e, c.idx, search.BinarySearch, coldOps)
		t.Row([]string{c.family, c.Label}, MB(c.idx.SizeBytes()), warm, cold.NsPerLookup)
	}
	return []report.Table{*t}, nil
}

// fig15 reports the fence comparison of Figure 15 on amzn. The fenced
// pass steers which lookup runs next by the payloads it reads, so only
// the unfenced one is payload-checked.
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
	for c := range configs(e, r.families([]string{"RMI", "RS", "PGM", "BTree", "FAST"})) {
		plain, err := e.warm(c, search.BinarySearch)
		if err != nil {
			return nil, err
		}
		fenced := measureFenced(e, c.idx, search.BinarySearch)
		t.Row([]string{c.family, c.Label}, MB(c.idx.SizeBytes()), plain, fenced.NsPerLookup)
	}
	return []report.Table{*t}, nil
}

// fig16a reports multithreaded throughput against thread count, with
// and without the serialized loop, at each family's mid-ladder
// configuration (the paper fixes ~50MB models for Figure 16a).
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
		c, ok := midConfig(e, family)
		if !ok {
			continue
		}
		for _, threads := range maxThreads() {
			plain, err := measureThroughput(e, c, threads, false)
			if err != nil {
				return nil, err
			}
			fenced, err := measureThroughput(e, c, threads, true)
			if err != nil {
				return nil, err
			}
			t.Row([]string{family, strconv.Itoa(threads)}, plain/1e6, fenced/1e6)
		}
	}
	return []report.Table{*t}, nil
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
	for c := range configs(e, r.families([]string{"RMI", "PGM", "RS", "BTree", "ART"})) {
		tp, err := measureThroughput(e, c, maxT, false)
		if err != nil {
			return nil, err
		}
		t.Row([]string{c.family, c.Label}, MB(c.idx.SizeBytes()), tp/1e6)
	}
	return []report.Table{*t}, nil
}

// fig16c reports simulated cache misses per lookup per second: the
// simulated misses-per-lookup of each structure's mid-ladder
// configuration divided by its measured lookup time.
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
	for _, family := range r.families(registry.Fig16Families) {
		c, ok := midConfig(e, family)
		if !ok {
			continue
		}
		cr, err := counterRow(e, c, 1)
		if err != nil {
			return nil, err
		}
		if cr != nil {
			perSec := cr.cacheMisses / (cr.nsPerLookup * 1e-9) / 1e6
			t.Row([]string{family}, cr.cacheMisses, cr.nsPerLookup, perSec)
		}
	}
	return []report.Table{*t}, nil
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
			nb, idx, _, err := BestVariant(e, family)
			if err != nil {
				return nil, err
			}
			if idx == nil {
				continue
			}
			start := time.Now()
			registry.SweepEntry(family, nb.Label, e.Keys)
			tune := time.Since(start)
			start = time.Now()
			if _, err := nb.Builder.Build(e.Keys); err != nil {
				continue
			}
			t.Row([]string{family, strconv.Itoa(o.N * mult)},
				float64(tune.Microseconds())/1000, float64(time.Since(start).Microseconds())/1000)
		}
	}
	return []report.Table{*t}, nil
}
