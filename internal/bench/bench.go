// Package bench is the benchmark harness: it builds index structures
// over the benchmark datasets, measures lookups under the paper's
// regimes (warm tight loop, serialized "fenced" loop, cold cache,
// multithreaded), and regenerates every table and figure of the
// paper's evaluation (Section 4). Beyond the paper it drives the
// repo's serving stack: the tiered write path replayed and priced in
// work (serve-lsm); the network, observability and replication layers
// under load, with the conservation laws each must hold (serve-net,
// serve-obs, serve-repl); and cold build against warm restart
// (persist). Experiments self-register in a catalog
// (register/Experiments/Find) and produce typed report.Tables; the
// sosd CLI renders them through the report sinks. See DESIGN.md for
// the experiment index.
package bench

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/search"
)

// Env bundles a dataset with its lookup workload and payloads.
type Env struct {
	Dataset  dataset.Name
	Keys     []core.Key
	Payloads []uint64
	Lookups  []core.Key
}

// NewEnv generates a benchmark environment. n is the dataset size and
// m the number of lookups; the paper uses 200M keys and 10M lookups,
// scaled down per DESIGN.md substitution 2.
func NewEnv(name dataset.Name, n, m int, seed uint64) (*Env, error) {
	keys, err := dataset.Generate(name, n, seed)
	if err != nil {
		return nil, err
	}
	return &Env{
		Dataset:  name,
		Keys:     keys,
		Payloads: dataset.Payloads(n, seed),
		Lookups:  dataset.Lookups(keys, m, seed),
	}, nil
}

// checksum is the payload sum over the environment's lookups at their
// LowerBound positions: what every unfenced warm pass must reproduce
// (the paper sums payloads "to ensure the results are accurate").
func (e *Env) checksum() uint64 {
	var sum uint64
	for _, x := range e.Lookups {
		sum += e.Payloads[core.LowerBound(e.Keys, x)]
	}
	return sum
}

// Measurement is one timed lookup run.
type Measurement struct {
	NsPerLookup float64
	checksum    uint64
}

// MeasureWarm times the paper's standard regime: a tight loop of
// lookups with everything hot in cache, using fn for the last mile.
func MeasureWarm(e *Env, idx core.Index, fn search.Fn) Measurement {
	return e.timed(idx, fn, false)
}

// measureFenced times the serialized regime of Figure 15: each lookup
// key is made data-dependent on the previous lookup's payload, so the
// CPU cannot overlap consecutive lookups. This replaces the paper's
// mfence, which Go cannot emit (DESIGN.md substitution 4).
func measureFenced(e *Env, idx core.Index, fn search.Fn) Measurement {
	return e.timed(idx, fn, true)
}

// timed runs one warm-up pass, then times a second.
func (e *Env) timed(idx core.Index, fn search.Fn, fenced bool) Measurement {
	e.pass(idx, fn, 0, fenced)
	start := time.Now()
	sum := e.pass(idx, fn, 0, fenced)
	elapsed := time.Since(start)
	return Measurement{
		NsPerLookup: float64(elapsed.Nanoseconds()) / float64(len(e.Lookups)),
		checksum:    sum,
	}
}

// pass runs len(e.Lookups) lookups — bound, last-mile search, payload
// read — from lookup start on and returns the payload sum. Unfenced it
// walks the lookups in order; fenced, the next index depends on the
// payload just read, a true data dependency chain that steers which
// lookup runs next without changing the key distribution.
func (e *Env) pass(idx core.Index, fn search.Fn, start int, fenced bool) uint64 {
	var sum uint64
	n := len(e.Lookups)
	i := start % max(n, 1)
	for ops := 0; ops < n; ops++ {
		x := e.Lookups[i]
		if pos := fn(e.Keys, x, idx.Lookup(x)); pos < len(e.Payloads) {
			sum += e.Payloads[pos]
		}
		if fenced {
			i = (i + 1 + int(sum&1)) % n
		} else if i++; i == n {
			i = 0
		}
	}
	return sum
}

// thrash is the cold-cache eviction buffer (must exceed the LLC).
var thrash []byte
var thrashOnce sync.Once

// MeasureCold times the cold-cache regime of Figure 14: the cache is
// evicted between lookups by streaming over a buffer larger than the
// LLC. coldOps lookups are measured (full thrashing per lookup makes
// the full workload impractical, as in the paper's flush).
func MeasureCold(e *Env, idx core.Index, fn search.Fn, coldOps int) Measurement {
	thrashOnce.Do(func() { thrash = make([]byte, 64<<20) })
	if coldOps > len(e.Lookups) {
		coldOps = len(e.Lookups)
	}
	var sum uint64
	var total time.Duration
	var sink byte
	for i := 0; i < coldOps; i++ {
		for j := 0; j < len(thrash); j += 64 {
			sink += thrash[j]
		}
		x := e.Lookups[i]
		start := time.Now()
		b := idx.Lookup(x)
		pos := fn(e.Keys, x, b)
		total += time.Since(start)
		if pos < len(e.Payloads) {
			sum += e.Payloads[pos]
		}
	}
	_ = sink
	return Measurement{
		NsPerLookup: float64(total.Nanoseconds()) / float64(coldOps),
		checksum:    sum,
	}
}

// measureThroughput runs the multithreaded regime of Figure 16:
// threads goroutines each execute the full lookup workload from their
// own offset; the result is aggregate lookups per second. fenced
// selects the serialized per-thread loop.
func measureThroughput(e *Env, idx core.Index, fn search.Fn, threads int, fenced bool) float64 {
	if threads < 1 {
		threads = 1
	}
	e.pass(idx, fn, 0, false) // warm caches and fault pages before timing
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			sink(e.pass(idx, fn, tid*7919, fenced))
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return float64(threads*len(e.Lookups)) / elapsed
}

var sinkVal uint64
var sinkMu sync.Mutex

// sink defeats dead-code elimination for concurrent sums.
func sink(v uint64) {
	sinkMu.Lock()
	sinkVal += v
	sinkMu.Unlock()
}

// measureBuild times index construction.
func measureBuild(b core.Builder, keys []core.Key) (core.Index, time.Duration, error) {
	start := time.Now()
	idx, err := b.Build(keys)
	return idx, time.Since(start), err
}

// avgLog2Width measures the empirical mean log2 search-bound width of
// an index over the environment's lookups — the paper's log2-error
// metric, computed uniformly for every structure.
func avgLog2Width(e *Env, idx core.Index) float64 {
	total := 0.0
	for _, x := range e.Lookups {
		total += float64(search.BinarySteps(idx.Lookup(x).Width()))
	}
	return total / float64(len(e.Lookups))
}

// maxThreads returns the thread counts swept in Figure 16a.
func maxThreads() []int {
	max := runtime.NumCPU()
	var out []int
	for t := 1; t <= max; t *= 2 {
		out = append(out, t)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// MB renders a byte count as megabytes.
func MB(bytes int) float64 { return float64(bytes) / (1 << 20) }

// BestVariant builds every configuration of a family and returns the
// one with the lowest warm lookup time (the paper's "fastest variant").
func BestVariant(e *Env, family string, fn func(*Env, core.Index) float64) (registry.NamedBuilder, core.Index, float64) {
	var bestNB registry.NamedBuilder
	var bestIdx core.Index
	best := -1.0
	for _, nb := range registry.Sweep(family, e.Keys) {
		idx, err := nb.Builder.Build(e.Keys)
		if err != nil {
			continue
		}
		v := fn(e, idx)
		if best < 0 || v < best {
			best, bestIdx, bestNB = v, idx, nb
		}
	}
	return bestNB, bestIdx, best
}
