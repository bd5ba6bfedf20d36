// Package bench is the benchmark harness: it builds index structures
// over the benchmark datasets, measures lookups under the paper's
// regimes (warm tight loop, serialized "fenced" loop, cold cache,
// multithreaded), and regenerates every table and figure of the
// paper's evaluation (Section 4). Beyond the paper it drives the
// repo's serving stack and reports laws and work; benchmark/ times the
// same stacks. The tiered write path is replayed and priced in key
// visits (serve-lsm); the network, observability and replication
// layers run under load and report the conservation laws each must
// hold (serve-obs, serve-repl, whose failover timeline is the one
// timing left, an ordering law); cold build against warm restart is
// priced in key visits and disk bytes (persist). Experiments
// self-register in a catalog (register/Experiments/Find) and produce
// typed report.Tables; the sosd CLI renders them through the report
// sinks. See DESIGN.md for the experiment index.
package bench

import (
	"fmt"
	"iter"
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

	sumOnce sync.Once
	sum     uint64 // checksum's value, computed once
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
// LowerBound positions: what every unfenced pass must reproduce (the
// paper sums payloads "to ensure the results are accurate").
func (e *Env) checksum() uint64 {
	e.sumOnce.Do(func() {
		for _, x := range e.Lookups {
			e.sum += e.Payloads[core.LowerBound(e.Keys, x)]
		}
	})
	return e.sum
}

// verify fails, naming the dataset, family and config, when a pass of
// c over every lookup summed other payloads than LowerBound's.
func (e *Env) verify(c config, sum uint64) error {
	if want := e.checksum(); sum != want {
		return fmt.Errorf("%s on %s: payload sum %d, want %d (LowerBound's)", registry.ID(c.family, c.Label), e.Dataset, sum, want)
	}
	return nil
}

// config is one built configuration of a family's sweep.
type config struct {
	family string
	registry.NamedBuilder
	idx core.Index
}

// configs yields every configuration of families, in their order and
// each family's ladder order, built over e's keys. A configuration
// that does not build is skipped.
func configs(e *Env, families []string) iter.Seq[config] {
	return func(yield func(config) bool) {
		for _, family := range families {
			for _, nb := range registry.Sweep(family, e.Keys) {
				idx, err := nb.Builder.Build(e.Keys)
				if err == nil && !yield(config{family, nb, idx}) {
					return
				}
			}
		}
	}
}

// midConfig builds a family's mid-ladder configuration; ok is false
// when the family has none or it does not build.
func midConfig(e *Env, family string) (config, bool) {
	nb, ok := registry.Builder(family, e.Keys)
	if !ok {
		return config{}, false
	}
	idx, err := nb.Builder.Build(e.Keys)
	return config{family, nb, idx}, err == nil
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

// warm is MeasureWarm of c's index, checked: the ns per lookup of the
// timed pass, or verify's error when its payload sum is wrong.
func (e *Env) warm(c config, fn search.Fn) (float64, error) {
	m := MeasureWarm(e, c.idx, fn)
	return m.NsPerLookup, e.verify(c, m.checksum)
}

// warmNative32 times a native 32-bit tree's Ceiling over e's lookups as
// warm times an index, a warm-up pass and then a timed one, and checks
// the timed pass's payload sum.
func (e *Env) warmNative32(name string, ceil func(core.Key32) int) (float64, error) {
	lookups := make([]core.Key32, len(e.Lookups))
	for i, x := range e.Lookups {
		lookups[i] = core.Key32(x)
	}
	pass := func() (sum uint64) {
		for _, x := range lookups {
			if pos := ceil(x); pos < len(e.Payloads) {
				sum += e.Payloads[pos]
			}
		}
		return sum
	}
	pass()
	start := time.Now()
	sum := pass()
	ns := float64(time.Since(start).Nanoseconds()) / float64(len(lookups))
	return ns, e.verify(config{family: name}, sum)
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
	var sum uint64
	var total time.Duration
	var sink byte
	coldOps = coldPass(e, coldOps, func() {
		for j := 0; j < len(thrash); j += 64 {
			sink += thrash[j]
		}
	}, func(x core.Key) {
		start := time.Now()
		b := idx.Lookup(x)
		pos := fn(e.Keys, x, b)
		total += time.Since(start)
		if pos < len(e.Payloads) {
			sum += e.Payloads[pos]
		}
	})
	_ = sink
	return Measurement{
		NsPerLookup: float64(total.Nanoseconds()) / float64(coldOps),
		checksum:    sum,
	}
}

// coldPass is Figure 14's cold pass: the first coldOps of e's lookups,
// each after evict. It returns the number of lookups run.
func coldPass(e *Env, coldOps int, evict func(), lookup func(core.Key)) int {
	coldOps = min(coldOps, len(e.Lookups))
	for _, x := range e.Lookups[:coldOps] {
		evict()
		lookup(x)
	}
	return coldOps
}

// measureThroughput runs the multithreaded regime of Figure 16:
// threads goroutines each execute the full lookup workload from their
// own offset; the result is aggregate lookups per second. fenced
// selects the serialized per-thread loop. Each unfenced thread's
// payload sum is verified; a fenced one steers its own keys and is
// not, so a fenced run never errs.
func measureThroughput(e *Env, c config, threads int, fenced bool) (float64, error) {
	threads = max(threads, 1)
	e.pass(c.idx, search.BinarySearch, 0, false) // warm caches and fault pages before timing
	sums := make([]uint64, threads)
	var wg sync.WaitGroup
	start := time.Now()
	for t := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[t] = e.pass(c.idx, search.BinarySearch, t*7919, fenced)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if !fenced {
		for _, sum := range sums {
			if err := e.verify(c, sum); err != nil {
				return 0, err
			}
		}
	}
	return float64(threads*len(e.Lookups)) / elapsed, nil
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
// one with the lowest checked warm lookup time (the paper's "fastest
// variant"); idx is nil when none builds.
func BestVariant(e *Env, family string) (registry.NamedBuilder, core.Index, float64, error) {
	c, ns, err := lowest(e, family, func(c config) (float64, error) { return e.warm(c, search.BinarySearch) })
	return c.NamedBuilder, c.idx, ns, err
}

// lowest returns the configuration of family's sweep with the lowest
// score, and that score; the config's idx is nil when none builds.
func lowest(e *Env, family string, score func(config) (float64, error)) (best config, lo float64, err error) {
	for c := range configs(e, []string{family}) {
		v, err := score(c)
		if err != nil {
			return config{}, 0, err
		}
		if best.idx == nil || v < lo {
			best, lo = c, v
		}
	}
	return best, lo, nil
}
