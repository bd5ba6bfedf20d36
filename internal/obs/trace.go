package obs

import (
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Phase names one segment of a request's life. The serving stack
// decomposes a point lookup into: queue-wait (admission to coalescer
// dequeue), coalesce-wait (dequeue to batch flush), shard-route
// (key-to-shard fan-out), run-probe (index descent across the shard's
// runs), and merge (scatter-gather of batch results).
type Phase uint8

const (
	PhaseQueueWait Phase = iota
	PhaseCoalesceWait
	PhaseShardRoute
	PhaseRunProbe
	PhaseMerge
	numPhases
)

var phaseNames = [numPhases]string{
	"queue_wait", "coalesce_wait", "shard_route", "run_probe", "merge",
}

// String returns the phase's metric label.
func (p Phase) String() string { return phaseNames[p] }

// DefaultTraceEvery is the default sampling stride: one traced request
// per 1024. At that rate the tracer's cost on the untraced fast path
// is one atomic add and one mask test per request; the traced request
// pays a handful of time.Now calls.
const DefaultTraceEvery = 1024

// Tracer samples requests and records their per-phase latency into
// registry histograms (sosd_trace_phase_ns{phase=...}). A nil *Tracer
// is valid and never samples.
type Tracer struct {
	mask    uint64 // every-1; every is a power of two
	n       atomic.Uint64
	sampled atomic.Uint64
	phases  [numPhases]stats.Histogram
}

// NewTracer registers a tracer's series in r and returns it. every is
// the sampling stride, rounded up to a power of two; <= 0 uses
// DefaultTraceEvery. A nil registry returns a nil (never-sampling)
// tracer.
func NewTracer(r *Registry, every int) *Tracer {
	if r == nil {
		return nil
	}
	if every <= 0 {
		every = DefaultTraceEvery
	}
	pow := uint64(1)
	for pow < uint64(every) {
		pow <<= 1
	}
	t := &Tracer{mask: pow - 1}
	r.CounterFunc("sosd_trace_sampled_total", func() float64 { return float64(t.sampled.Load()) })
	for p := Phase(0); p < numPhases; p++ {
		r.AttachHistogram("sosd_trace_phase_ns", &t.phases[p], Label{"phase", phaseNames[p]})
	}
	return t
}

// Sample decides whether this request is traced: nil for the common
// (untraced) case, a live Span on the sampling stride. The untraced
// cost is one atomic add and a mask test.
func (t *Tracer) Sample() *Span {
	if t == nil {
		return nil
	}
	if t.n.Add(1)&t.mask != 0 {
		return nil
	}
	t.sampled.Add(1)
	return &Span{t: t, last: time.Now()}
}

// Span is one sampled request's trace. All methods no-op on a nil
// span, so instrumented code calls them unconditionally. A span needs
// no finish call — each phase records as it is marked.
type Span struct {
	t    *Tracer
	last time.Time
}

// Mark records phase p as the time elapsed since the span's creation
// or its previous Mark — the sequential-phase form.
func (s *Span) Mark(p Phase) {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.phases[p].Record(now.Sub(s.last).Nanoseconds())
	s.last = now
}
