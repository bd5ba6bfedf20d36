// Package repro's root benchmarks regenerate each table and figure of
// "Benchmarking Learned Indexes" as testing.B series: every
// sub-benchmark corresponds to one point (structure x configuration x
// dataset) of the corresponding plot. The cmd/sosd CLI runs the same
// experiments with full configuration sweeps and formatted output.
// Figures 12 and 16c, the simulated counters, are benchmarked in
// internal/bench beside the code that collects them.
//
// Benchmarks use laptop-scale datasets (DESIGN.md substitution 2);
// shapes, not absolute nanoseconds, are the reproduction target.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/load"
	"repro/internal/perfsim"
	"repro/internal/registry"
	"repro/internal/search"
	"repro/internal/serve"
	"repro/internal/table"
)

// benchN is the dataset scale for the root benchmarks; the CLI scales
// further via -n.
const benchN = 100_000
const benchLookups = 10_000

var envCache = map[dataset.Name]*bench.Env{}

func benchEnv(b *testing.B, name dataset.Name) *bench.Env {
	b.Helper()
	if e, ok := envCache[name]; ok {
		return e
	}
	e, err := bench.NewEnv(name, benchN, benchLookups, 42)
	if err != nil {
		b.Fatal(err)
	}
	envCache[name] = e
	return e
}

// pick thins a sweep to at most k configurations (keeping extremes).
func pick(sweep []registry.NamedBuilder, k int) []registry.NamedBuilder {
	if len(sweep) <= k {
		return sweep
	}
	out := make([]registry.NamedBuilder, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, sweep[i*(len(sweep)-1)/(k-1)])
	}
	return out
}

func lookupLoop(b *testing.B, e *bench.Env, idx core.Index, fn search.Fn) {
	b.Helper()
	b.ReportMetric(bench.MB(idx.SizeBytes()), "MB")
	var sum uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := e.Lookups[i%len(e.Lookups)]
		bd := idx.Lookup(x)
		pos := fn(e.Keys, x, bd)
		if pos < len(e.Payloads) {
			sum += e.Payloads[pos]
		}
	}
	_ = sum
}

// BenchmarkFig6_DatasetCDFs measures dataset generation (the input to
// Figure 6's CDF plots).
func BenchmarkFig6_DatasetCDFs(b *testing.B) {
	for _, name := range dataset.All() {
		b.Run(string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				keys := dataset.MustGenerate(name, 20_000, uint64(i+1))
				xs, _ := dataset.CDF(keys, 32)
				if len(xs) == 0 {
					b.Fatal("empty CDF")
				}
			}
		})
	}
}

// BenchmarkFig7_Pareto is Figure 7: warm lookups per structure and
// configuration across all four datasets.
func BenchmarkFig7_Pareto(b *testing.B) {
	for _, name := range dataset.All() {
		e := benchEnv(b, name)
		for _, family := range registry.ParetoFamilies {
			for _, nb := range pick(registry.Sweep(family, e.Keys), 3) {
				idx, err := nb.Builder.Build(e.Keys)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("%s/%s/%s", name, family, nb.Label), func(b *testing.B) {
					lookupLoop(b, e, idx, search.BinarySearch)
				})
			}
		}
		b.Run(fmt.Sprintf("%s/BS", name), func(b *testing.B) {
			idx, _ := registry.Sweep("BS", e.Keys)[0].Builder.Build(e.Keys)
			lookupLoop(b, e, idx, search.BinarySearch)
		})
	}
}

// BenchmarkFig8_StringStructures is Figure 8: FST and Wormhole against
// RMI and BTree on amzn and face.
func BenchmarkFig8_StringStructures(b *testing.B) {
	for _, name := range []dataset.Name{dataset.Amzn, dataset.Face} {
		e := benchEnv(b, name)
		for _, family := range registry.StringFamilies {
			for _, nb := range pick(registry.Sweep(family, e.Keys), 2) {
				idx, err := nb.Builder.Build(e.Keys)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("%s/%s/%s", name, family, nb.Label), func(b *testing.B) {
					lookupLoop(b, e, idx, search.BinarySearch)
				})
			}
		}
	}
}

// BenchmarkTable2_FastestVariants is Table 2: the fastest variant of
// each structure plus the hash tables on amzn.
func BenchmarkTable2_FastestVariants(b *testing.B) {
	e := benchEnv(b, dataset.Amzn)
	for _, family := range registry.Table2Families {
		nb, idx, _ := bench.BestVariant(e, family, func(e *bench.Env, idx core.Index) float64 {
			return bench.MeasureWarm(e, idx, search.BinarySearch).NsPerLookup
		})
		if idx == nil {
			continue
		}
		b.Run(fmt.Sprintf("%s/%s", family, nb.Label), func(b *testing.B) {
			lookupLoop(b, e, idx, search.BinarySearch)
		})
	}
}

// BenchmarkFig9_DatasetSizes is Figure 9: lookup latency as the
// dataset grows 1x..4x.
func BenchmarkFig9_DatasetSizes(b *testing.B) {
	for mult := 1; mult <= 4; mult++ {
		e, err := bench.NewEnv(dataset.Amzn, benchN*mult, benchLookups, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, family := range []string{"RMI", "PGM", "RS", "BTree"} {
			nb := pick(registry.Sweep(family, e.Keys), 3)[1]
			idx, err := nb.Builder.Build(e.Keys)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%dx/%s/%s", mult, family, nb.Label), func(b *testing.B) {
				lookupLoop(b, e, idx, search.BinarySearch)
			})
		}
	}
}

// BenchmarkFig10_KeySize is Figure 10: 64-bit vs rank-preserved 32-bit
// keys on amzn.
func BenchmarkFig10_KeySize(b *testing.B) {
	e64 := benchEnv(b, dataset.Amzn)
	k32 := dataset.To32(e64.Keys)
	widened := make([]core.Key, len(k32))
	for i, k := range k32 {
		widened[i] = core.Key(k)
	}
	e32 := &bench.Env{Dataset: "amzn32", Keys: widened, Payloads: e64.Payloads,
		Lookups: dataset.Lookups(widened, benchLookups, 42)}
	for _, family := range []string{"RMI", "RS", "PGM", "BTree", "FAST"} {
		for _, bits := range []string{"64", "32"} {
			e := e64
			if bits == "32" {
				e = e32
			}
			nb := pick(registry.Sweep(family, e.Keys), 3)[1]
			idx, err := nb.Builder.Build(e.Keys)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%sbit/%s", family, bits, nb.Label), func(b *testing.B) {
				lookupLoop(b, e, idx, search.BinarySearch)
			})
		}
	}
}

// BenchmarkFig11_SearchFunctions is Figure 11: binary vs linear vs
// interpolation last-mile search on amzn and osm.
func BenchmarkFig11_SearchFunctions(b *testing.B) {
	for _, name := range []dataset.Name{dataset.Amzn, dataset.OSM} {
		e := benchEnv(b, name)
		for _, family := range []string{"RMI", "PGM", "RS"} {
			nb := pick(registry.Sweep(family, e.Keys), 3)[1]
			idx, err := nb.Builder.Build(e.Keys)
			if err != nil {
				b.Fatal(err)
			}
			for _, kind := range []search.Kind{search.Binary, search.Linear, search.Interpolation} {
				b.Run(fmt.Sprintf("%s/%s/%s", name, family, kind), func(b *testing.B) {
					lookupLoop(b, e, idx, search.ByKind(kind))
				})
			}
		}
	}
}

// BenchmarkFig14_ColdCache is Figure 14: warm lookups as ns/op, with
// the cold-cache latency (cache thrashed between lookups, measured
// once outside the timed loop) reported as a companion metric.
// Thrashing inside a time-targeted loop would multiply wall time by
// the eviction cost, so the cold number comes from a fixed-size run.
func BenchmarkFig14_ColdCache(b *testing.B) {
	e := benchEnv(b, dataset.Amzn)
	for _, family := range []string{"RMI", "RS", "PGM", "BTree", "FAST"} {
		nb := pick(registry.Sweep(family, e.Keys), 3)[1]
		idx, err := nb.Builder.Build(e.Keys)
		if err != nil {
			b.Fatal(err)
		}
		cold := bench.MeasureCold(e, idx, search.BinarySearch, 200)
		b.Run(fmt.Sprintf("%s/%s", family, nb.Label), func(b *testing.B) {
			b.ReportMetric(cold.NsPerLookup, "cold-ns/op")
			lookupLoop(b, e, idx, search.BinarySearch)
		})
	}
}

// BenchmarkFig15_Fence is Figure 15: serialized (data-dependent) vs
// pipelined lookup loops.
func BenchmarkFig15_Fence(b *testing.B) {
	e := benchEnv(b, dataset.Amzn)
	for _, family := range []string{"RMI", "RS", "PGM", "BTree", "FAST"} {
		nb := pick(registry.Sweep(family, e.Keys), 3)[1]
		idx, err := nb.Builder.Build(e.Keys)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/nofence/%s", family, nb.Label), func(b *testing.B) {
			lookupLoop(b, e, idx, search.BinarySearch)
		})
		b.Run(fmt.Sprintf("%s/fence/%s", family, nb.Label), func(b *testing.B) {
			var sum uint64
			i := 0
			n := len(e.Lookups)
			b.ResetTimer()
			for op := 0; op < b.N; op++ {
				x := e.Lookups[i]
				bd := idx.Lookup(x)
				pos := search.BinarySearch(e.Keys, x, bd)
				sum += e.Payloads[pos%len(e.Payloads)]
				i = (i + 1 + int(sum&1)) % n
			}
			_ = sum
		})
	}
}

// BenchmarkFig16a_Threads is Figure 16a: parallel lookup throughput.
func BenchmarkFig16a_Threads(b *testing.B) {
	e := benchEnv(b, dataset.Amzn)
	for _, family := range []string{"RMI", "PGM", "RS", "RBS", "BTree", "RobinHash"} {
		nb, _ := registry.Builder(family, e.Keys)
		idx, err := nb.Builder.Build(e.Keys)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(family, func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				var sum uint64
				i := 0
				for pb.Next() {
					x := e.Lookups[i%len(e.Lookups)]
					bd := idx.Lookup(x)
					pos := search.BinarySearch(e.Keys, x, bd)
					sum += e.Payloads[pos%len(e.Payloads)]
					i++
				}
				_ = sum
			})
		})
	}
}

// BenchmarkFig17_BuildTimes is Figure 17: index construction time.
func BenchmarkFig17_BuildTimes(b *testing.B) {
	e := benchEnv(b, dataset.Amzn)
	families := []string{"PGM", "RS", "RMI", "RBS", "ART", "BTree", "IBTree", "FAST", "FST", "Wormhole", "RobinHash"}
	for _, family := range families {
		sweep := registry.Sweep(family, e.Keys)
		nb := sweep[len(sweep)-1] // largest (fastest-lookup) variant
		b.Run(fmt.Sprintf("%s/%s", family, nb.Label), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := nb.Builder.Build(e.Keys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuild times one cell of the idx-lookup workload per family
// and dataset, as its set-up builds it: the registry's mid-sweep
// builder (the RMI tunes its rung here) and table.Build over the
// 2M-key set with its payloads.
func BenchmarkBuild(b *testing.B) {
	for _, ds := range dataset.All() {
		keys := dataset.MustGenerate(ds, dataset.DefaultN, 1)
		payloads := dataset.Payloads(len(keys), 1)
		for _, family := range []string{"RMI", "PGM", "RS", "BTree"} {
			b.Run(family+"/"+string(ds), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					nb, ok := registry.Builder(family, keys)
					if !ok {
						b.Fatalf("%s: no mid-sweep builder", family)
					}
					if _, err := table.Build(nb.Builder, keys, payloads, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

var lookupSink core.Bound

// BenchmarkLookup prices one scalar Lookup — no table, no last-mile
// search — of every family whose Lookup is also the descent perfsim
// traces, at the registry's mid-sweep configuration on amzn and osm at
// the default scale.
func BenchmarkLookup(b *testing.B) {
	const nProbes = 1 << 16 // a power of two: the loop indexes it with a mask
	for _, ds := range []dataset.Name{dataset.Amzn, dataset.OSM} {
		keys := dataset.MustGenerate(ds, dataset.DefaultN, 1)
		probes := dataset.Lookups(keys, nProbes, 7)
		for _, family := range []string{"PGM", "RS", "RBS", "BTree", "IBTree", "ART", "FAST", "RobinHash"} {
			b.Run(family+"/"+string(ds), func(b *testing.B) {
				nb, ok := registry.Builder(family, keys)
				if !ok {
					b.Fatalf("%s: no mid-sweep builder", family)
				}
				idx, err := nb.Builder.Build(keys)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; b.Loop(); i++ {
					lookupSink = idx.Lookup(probes[i&(nProbes-1)])
				}
			})
		}
	}
}

// serveN sizes the serving-layer benchmarks: 1M keys (8 MB of keys +
// 8 MB of payloads) so the data array exceeds mid-level caches and the
// batched path's overlapped memory accesses have misses to hide.
const serveN = 1_000_000

var serveEnvCache *bench.Env

func serveEnv(b *testing.B) *bench.Env {
	b.Helper()
	if serveEnvCache == nil {
		e, err := bench.NewEnv(dataset.Amzn, serveN, 100_000, 42)
		if err != nil {
			b.Fatal(err)
		}
		serveEnvCache = e
	}
	return serveEnvCache
}

// serveBenchFamilies is the family set of the serving benchmarks: two
// learned indexes plus the tree baseline, on the books-style amzn
// dataset.
var serveBenchFamilies = []string{"RMI", "PGM", "BTree"}

// serveBatchSize is the lookup batch of the serving benchmarks: large
// enough to amortize the per-batch passes, small enough to be a
// realistic request size.
const serveBatchSize = 256

// getBatchFamilies is BenchmarkGetBatch's family set: every learned
// family, the one batch descent (PGM) beside the three that bound a
// batch with Lookup per key, and the tree baseline.
var getBatchFamilies = []string{"RMI", "PGM", "RS", "RBS", "BTree"}

// BenchmarkGetBatch compares the per-key Table.Get loop against the
// batched GetBatch fast path. ns/op is per lookup in both cases.
func BenchmarkGetBatch(b *testing.B) {
	e := serveEnv(b)
	for _, family := range getBatchFamilies {
		nb, ok := registry.Builder(family, e.Keys)
		if !ok {
			b.Fatalf("no builder for %s", family)
		}
		idx, err := nb.Builder.Build(e.Keys)
		if err != nil {
			b.Fatal(err)
		}
		t, err := table.New(e.Keys, e.Payloads, idx, search.BinarySearch)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/perkey", family), func(b *testing.B) {
			var sum uint64
			for i := 0; i < b.N; i++ {
				v, _ := t.Get(e.Lookups[i%len(e.Lookups)])
				sum += v
			}
			_ = sum
		})
		b.Run(fmt.Sprintf("%s/batch%d", family, serveBatchSize), func(b *testing.B) {
			out := make([]uint64, serveBatchSize)
			n := len(e.Lookups)
			b.ResetTimer()
			for done := 0; done < b.N; {
				lo := done % n
				hi := lo + serveBatchSize
				if hi > n {
					hi = n
				}
				if rem := b.N - done; hi-lo > rem {
					hi = lo + rem
				}
				chunk := e.Lookups[lo:hi]
				t.GetBatch(chunk, out[:len(chunk)])
				done += len(chunk)
			}
		})
	}
}

// BenchmarkServeSharded measures sharded-store batch throughput with
// parallel clients (ns/op is per lookup, aggregated over clients).
func BenchmarkServeSharded(b *testing.B) {
	e := serveEnv(b)
	for _, family := range serveBenchFamilies {
		for _, shards := range []int{1, 4, 8} {
			st, err := serve.New(e.Keys, e.Payloads, serve.Config{Shards: shards, Family: family})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/shards=%d", family, st.NumShards()), func(b *testing.B) {
				b.ReportMetric(bench.MB(st.SizeBytes()), "MB")
				b.RunParallel(func(pb *testing.PB) {
					out := make([]uint64, serveBatchSize)
					chunk := make([]core.Key, 0, serveBatchSize)
					i := 0
					for {
						chunk = chunk[:0]
						for len(chunk) < serveBatchSize && pb.Next() {
							chunk = append(chunk, e.Lookups[i%len(e.Lookups)])
							i++
						}
						if len(chunk) == 0 {
							return
						}
						st.GetBatch(chunk, out[:len(chunk)])
						if len(chunk) < serveBatchSize {
							return
						}
					}
				})
			})
			st.Close()
		}
	}
}

// BenchmarkServeMixed measures the mutable store under a YCSB-A-style
// 50/50 zipfian read/write mix (ns/op is per operation; background
// compactions run concurrently, as in a live system).
func BenchmarkServeMixed(b *testing.B) {
	e := serveEnv(b)
	for _, family := range serveBenchFamilies {
		b.Run(family, func(b *testing.B) {
			st, err := serve.New(e.Keys, e.Payloads, serve.Config{
				Shards: 4, Family: family, CompactThreshold: serve.DefaultCompactThreshold,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			reads := dataset.ZipfLookups(e.Keys, 1<<16, bench.YCSBTheta, 7)
			inserts := dataset.InsertKeys(e.Keys, 1<<15, 9)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&1 == 0 {
					st.Get(reads[i%len(reads)])
				} else if i&2 == 0 {
					st.Put(inserts[(i>>2)%len(inserts)], uint64(i))
				} else {
					st.Put(reads[i%len(reads)], uint64(i))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(st.Compactions()), "compactions")
		})
	}
}

// tailWorkers sizes BenchmarkServeTail's generator pool: enough
// concurrency to saturate the store without drowning the machine in
// pure scheduler overhead.
func tailWorkers() int { return min(runtime.NumCPU(), 8) }

// storeTarget is the load.Target over a serve.Store called directly,
// whose operations cannot fail.
type storeTarget struct{ st *serve.Store }

func (p storeTarget) TryGet(key core.Key) (uint64, bool, error) {
	v, ok := p.st.Get(key)
	return v, ok, nil
}

func (p storeTarget) TryPut(key core.Key, payload uint64) error {
	p.st.Put(key, payload)
	return nil
}

// BenchmarkServeTail measures the mutable store under the tail-latency
// generators on a YCSB-B-style 95/5 zipfian mix: a closed loop at
// saturation, then an open loop offering half the measured capacity on
// a Poisson schedule with latency measured from scheduled arrivals.
// ns/op is wall time per operation; the tail metrics are the point of
// the benchmark: p50/p99/p99.9 in ns alongside achieved kops/s.
func BenchmarkServeTail(b *testing.B) {
	e := serveEnv(b)
	const readFrac, theta = 0.95, bench.YCSBTheta
	workers := tailWorkers()
	for _, family := range serveBenchFamilies {
		// Every run — capacity probe, closed, open — gets a fresh store:
		// earlier writes and compactions must not leak into later
		// measurements.
		newStore := func(b *testing.B) *serve.Store {
			b.Helper()
			st, err := serve.New(e.Keys, e.Payloads, serve.Config{
				Shards: 4, Family: family, CompactThreshold: serve.DefaultCompactThreshold,
			})
			if err != nil {
				b.Fatal(err)
			}
			return st
		}
		// Capacity probe for the open loop's offered rate (fixed size,
		// outside any timed loop, on its own store).
		probeSt := newStore(b)
		probe := load.Run(storeTarget{probeSt}, load.MixedOps(e.Keys, 20_000, readFrac, theta, 7),
			load.Config{Workers: workers})
		probeSt.Close()

		reportTail := func(b *testing.B, res *load.Result) {
			all := res.Reads.Snapshot()
			all.Merge(&res.Writes)
			s := all.Summary()
			b.ReportMetric(res.Throughput()/1e3, "kops/s")
			b.ReportMetric(float64(s.P50), "p50-ns")
			b.ReportMetric(float64(s.P99), "p99-ns")
			b.ReportMetric(float64(s.P999), "p99.9-ns")
		}
		b.Run(fmt.Sprintf("%s/closed", family), func(b *testing.B) {
			st := newStore(b)
			defer st.Close()
			ops := load.MixedOps(e.Keys, b.N, readFrac, theta, 7)
			b.ResetTimer()
			res := load.Run(storeTarget{st}, ops, load.Config{Workers: workers})
			b.StopTimer()
			reportTail(b, res)
		})
		b.Run(fmt.Sprintf("%s/open50", family), func(b *testing.B) {
			st := newStore(b)
			defer st.Close()
			ops := load.MixedOps(e.Keys, b.N, readFrac, theta, 7)
			b.ResetTimer()
			res := load.Run(storeTarget{st}, ops, load.Config{
				Workers: workers, Rate: probe.Throughput() / 2, Seed: 7,
			})
			b.StopTimer()
			reportTail(b, res)
		})
	}
}

// BenchmarkPersistColdWarm measures time to a ready-to-serve store
// from raw keys (cold: build + tune) vs from a snapshot (warm: load +
// decode, no retraining) — the serving-layer form of the paper's
// build-cost axis (Figures 9 and 17).
func BenchmarkPersistColdWarm(b *testing.B) {
	e := benchEnv(b, dataset.Amzn)
	for _, family := range serveBenchFamilies {
		b.Run(family+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st, err := serve.New(e.Keys, e.Payloads, serve.Config{Shards: 4, Family: family})
				if err != nil {
					b.Fatal(err)
				}
				st.Close()
			}
		})
		b.Run(family+"/warm", func(b *testing.B) {
			dir := b.TempDir()
			st, err := serve.New(e.Keys, e.Payloads, serve.Config{Shards: 4, Family: family})
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Snapshot(dir); err != nil {
				b.Fatal(err)
			}
			st.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				warm, err := serve.Open(dir, serve.Config{})
				if err != nil {
					b.Fatal(err)
				}
				warm.Close()
			}
		})
	}
}

// BenchmarkPerfsimOverhead quantifies the simulator itself (not a
// paper figure; a sanity number for the methodology).
func BenchmarkPerfsimOverhead(b *testing.B) {
	m := perfsim.New(perfsim.Config{})
	r := m.Alloc(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(r, (i*64)%(1<<20), 8)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
