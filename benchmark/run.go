package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// config is what one workload run is given.
type config struct {
	n       int     // keys per dataset
	seed    uint64  // derives every input
	seconds float64 // length of the measured pass
	trace   bool    // also run the traced pass and the ladders
	quick   bool    // smoke-test sizes
	tmpRoot string  // every directory a run creates is under it
	corrupt bool    // test hook: spoil one expected payload, so that the oracle must object
	log     io.Writer

	complaints atomic.Int32
}

// complain reports a failed oracle check, the first few of a run only.
func (c *config) complain(format string, args ...any) {
	if c.complaints.Add(1) <= 8 {
		c.logf("oracle: "+format, args...)
	}
}

func (c *config) logf(format string, args ...any) { fmt.Fprintf(c.log, format+"\n", args...) }

// scale picks the full or the quick size of an input.
func (c *config) scale(full, quick int) int {
	if c.quick {
		return quick
	}
	return full
}

// outDir, in the checkout the command runs from, holds what a run leaves
// behind and, while it runs, its temporary directories. traceFile there
// receives the spans of every traced workload of an invocation, which
// starts it afresh.
const (
	outDir    = "benchmark/out"
	traceFile = "trace.jsonl"
)

// workload is one of the five named workloads. An implementation keeps
// its inputs and its stack between the calls, which come in this order:
// generate, then setUp, measure and tearDown, and in a traced run setUp,
// measure, ladder and tearDown once more.
type workload interface {
	// generate makes the inputs from c.seed. It counts as set-up time.
	generate(c *config) error
	// setUp builds the stack, keeping its files under dir. traced
	// attaches the program's own tracer.
	setUp(c *config, dir string, traced bool) error
	// timing reports the seconds the last setUp spent in each part, under
	// the per-layer names of those parts.
	timing(m metrics)
	// measure drives the stack for one pass, checks every output against
	// the oracle, and stores what it counted in m. With rec set it
	// records spans.
	measure(c *config, p plan, rec *recorder, m metrics) (*pass, error)
	// latencyUnitsPerUs is how many units of the read and write
	// histograms make one microsecond.
	latencyUnitsPerUs() float64
	// ladder drives single-threaded blocks of calls through each layer
	// boundary of the stack in turn.
	ladder(c *config, rec *recorder, m metrics) error
	tearDown()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "idx-lookup":
		return &idxLookup{}, nil
	case "store-read":
		return &storeRead{}, nil
	case "store-mixed":
		return &storeMixed{}, nil
	case "wire-point":
		return &wirePoint{}, nil
	case "routed-batch":
		return &routedBatch{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runWorkload runs one workload: set-up, the untraced pass that yields
// the end-to-end metrics and the counters, and with c.trace the traced
// pass on a fresh stack followed by the ladders.
func runWorkload(c *config, name string) (res *result, err error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	goroutines := runtime.NumGoroutine()
	dirs := 0
	mkdir := func() (string, error) {
		dirs++
		dir := filepath.Join(c.tmpRoot, fmt.Sprintf("%s-%d", name, dirs))
		return dir, os.MkdirAll(dir, 0o755)
	}
	// The stack is released on every path out, and the next workload
	// starts from the goroutines and the heap this one started from.
	defer func() {
		w.tearDown()
		if serr := settle(goroutines); err == nil {
			err = serr
		}
	}()

	m := metrics{}
	res = &result{Workload: name, Seed: c.seed, Trace: c.trace, Metrics: m,
		Spread: map[string]float64{}, Samples: map[string]uint64{}}

	// Set-up is timed as a whole, inputs included.
	dir, err := mkdir()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := w.generate(c); err != nil {
		return nil, fmt.Errorf("%s: generate: %w", name, err)
	}
	if err := w.setUp(c, dir, false); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	setup := time.Since(t0).Seconds()
	m.set("setup_s", setup, "s")
	w.timing(m)
	c.logf("%s: generated and set up in %.2fs", name, setup)

	ps, err := w.measure(c, untracedPlan(c.seconds), nil, m)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.Attempted, res.Failed = ps.attempted(), ps.failed()
	res.summarise(ps, w.latencyUnitsPerUs())
	c.logf("%s: ops/s per window %.0f", name, ps.each((*window).opsPerSec))
	m.set("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	for _, call := range []string{"read", "write"} {
		_, p50 := m[call+"_p50_us"]
		if _, p99 := m[call+"_p99_us"]; p50 && !p99 {
			c.logf("%s: %s_p99_us is not reported: a window holds under %d samples", name, call, p99MinSamples)
		}
	}
	if !c.trace {
		return res, nil
	}

	w.tearDown()
	if err := settle(goroutines); err != nil {
		return nil, err
	}
	if dir, err = mkdir(); err != nil {
		return nil, err
	}
	if err := w.setUp(c, dir, true); err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", name, err)
	}
	rec := newRecorder()
	tm := metrics{}
	tps, err := w.measure(c, tracedPlan(c.seconds*tracedShare), rec, tm)
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", name, err)
	}
	res.Attempted += tps.attempted()
	res.Failed += tps.failed()
	// The traced pass contributes the tracing overhead and the phases of
	// the program's own tracer; every other number stays untraced.
	traced := median(tps.each((*window).opsPerSec))
	m.set("bench.trace_overhead", 1-traced/m["ops_s"].Value, "ratio")
	for _, p := range tracerPhaseMetrics {
		if v, ok := tm[p.name]; ok {
			m[p.name] = v
		}
	}
	if err := w.ladder(c, rec, m); err != nil {
		return nil, fmt.Errorf("%s: ladder: %w", name, err)
	}
	path := filepath.Join(outDir, traceFile)
	header := map[string]any{"workload": name, "seed": c.seed, "spans": len(rec.spans)}
	if err := rec.write(path, header); err != nil {
		return nil, err
	}
	c.logf("%s: %d spans written to %s", name, len(rec.spans), path)
	for _, t := range spanTotals(rec.spans) {
		c.logf("  span %-28s n=%-7d calls=%-9d total=%-12v self=%v", t.Name, t.Count, t.Calls, t.Total, t.Self)
	}
	return res, nil
}

// tracedShare is the length of the traced pass of a traced run, as a
// share of the untraced pass that precedes it at full length. The ladders
// that follow have their length fixed by their call counts.
const tracedShare = 0.25

// p99MinSamples is the number of samples every window must hold for a
// 99th percentile to be reported: ten beyond it.
const p99MinSamples = 1000

// summarise turns the windows of the untraced pass into the metrics a
// user of the system would see: medians over the windows.
func (r *result) summarise(ps *pass, unitsPerUs float64) {
	windowed := func(name, unit string, f func(*window) float64) {
		v := ps.each(f)
		r.Metrics.set(name, median(v), unit)
		r.Spread[name] = spread(v)
	}
	windowed("ops_s", "ops/s", (*window).opsPerSec)
	r.Metrics.set("bench.window_spread", r.Spread["ops_s"], "ratio")
	quantile := func(name string, q float64, h func(*window) *stats.Histogram) {
		samples := h(ps.windows[0]).Count()
		for _, w := range ps.windows {
			samples = min(samples, h(w).Count())
		}
		if samples == 0 || (q >= 0.99 && samples < p99MinSamples) {
			return // not measured: too few samples for this quantile
		}
		windowed(name, "us", func(w *window) float64 { return float64(h(w).Quantile(q)) / unitsPerUs })
		r.Samples[name] = samples
	}
	reads := func(w *window) *stats.Histogram { return &w.reads }
	writes := func(w *window) *stats.Histogram { return &w.writes }
	quantile("read_p50_us", 0.50, reads)
	quantile("read_p99_us", 0.99, reads)
	quantile("write_p50_us", 0.50, writes)
	quantile("write_p99_us", 0.99, writes)
}

// heapMB is HeapInuse after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// settle waits for the goroutines of a released stack to end and
// collects its garbage, so that one workload cannot weigh on the next.
func settle(goroutines int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running after tear-down, %d before set-up",
				runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	return nil
}
