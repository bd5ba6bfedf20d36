package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// plan is the shape of one measured pass: a discarded warm-up, then
// windows of equal length on the same stack.
type plan struct {
	warm    time.Duration
	window  time.Duration
	windows int
}

// The untraced pass is 3 s of warm-up and 4 windows of 5 s at full
// length, 23 s in all; a shorter run scales both by the same factor and
// keeps the window count.
func untracedPlan(seconds float64) plan {
	unit := time.Duration(seconds / 23 * float64(time.Second))
	return plan{warm: 3 * unit, window: 5 * unit, windows: 4}
}

// The traced pass is 2 windows of 2 s after 1 s of warm-up at full
// length.
func tracedPlan(seconds float64) plan {
	unit := time.Duration(seconds / 5 * float64(time.Second))
	return plan{warm: unit, window: 2 * unit, windows: 2}
}

// slot holds what one worker saw during one window (slot 0 is the
// warm-up). A worker owns its slots while the pass runs.
type slot struct {
	ops       int64 // accepted operations: keys of a batch, or one per point call
	attempted int64
	failed    int64           // errors, sheds and wrong payloads
	reads     stats.Histogram // ns per read call
	writes    stats.Histogram // ns per write call

	rec    *recorder // nil in the untraced pass
	parent int64
	every  int // record the span of every every-th call
	calls  int
	spans  []span
}

// read records the latency of one read call that started at t0 and, in
// the traced pass, its span.
func (s *slot) read(t0 time.Time, name string, req int64, calls int) {
	t1 := time.Now()
	s.reads.Record(t1.Sub(t0).Nanoseconds())
	s.span(t0, t1, name, req, calls)
}

func (s *slot) write(t0 time.Time, name string, req int64) {
	t1 := time.Now()
	s.writes.Record(t1.Sub(t0).Nanoseconds())
	s.span(t0, t1, name, req, 1)
}

func (s *slot) span(t0, t1 time.Time, name string, req int64, calls int) {
	if s.rec == nil {
		return
	}
	if s.calls++; s.calls%s.every != 0 {
		return
	}
	s.spans = append(s.spans, span{
		ID: s.rec.id(), Parent: s.parent, Name: name, Req: req,
		Start: s.rec.since(t0), End: s.rec.since(t1), Calls: calls,
	})
}

// lane is a worker's private cursor into its input stream, padded so
// that the lanes of two workers never share a cache line.
type lane struct {
	next int   // calls made so far
	puts int64 // writes made so far
	_    [112]byte
}

// window is the merged view of one window across workers.
type window struct {
	dur                    time.Duration
	ops, attempted, failed int64
	reads, writes          stats.Histogram
}

func (w *window) opsPerSec() float64 { return float64(w.ops) / w.dur.Seconds() }

// pass is the outcome of drive: the measured windows, and what was
// attempted and what failed outside them (the warm-up, and the checks a
// workload makes after the last window), so that no failure goes
// uncounted.
type pass struct {
	windows                     []*window
	otherAttempted, otherFailed int64
}

// driver says how a pass is driven.
type driver struct {
	workers   int
	rec       *recorder // nil for the untraced pass
	name      string    // labels the pass's spans
	spanEvery int       // record the span of every n-th call only; 0 means all

	// onEdge, when set, is called as window k starts (edge k, 1-based)
	// and as the last window ends (edge windows+1): where counters are
	// read, so that their deltas cover the windows and not the warm-up.
	onEdge func(edge int)
}

// drive runs a closed loop: each of the workers calls step again as
// soon as its previous call returns, until the last window ends. step
// performs one call (or one block of calls) and records it in s.
func drive(p plan, d driver, step func(worker int, s *slot)) *pass {
	workers, rec, name := d.workers, d.rec, d.name
	nSlots := p.windows + 1
	slots := make([][]slot, workers)
	for w := range slots {
		slots[w] = make([]slot, nSlots)
	}
	var passSpan span
	winSpans := make([]span, nSlots)
	if rec != nil {
		passSpan = rec.open(name, 0)
		for k := range winSpans {
			winSpans[k] = span{ID: rec.id(), Parent: passSpan.ID, Name: name + ".window", Req: int64(k)}
			for w := range slots {
				slots[w][k].rec, slots[w][k].parent, slots[w][k].every = rec, winSpans[k].ID, max(d.spanEvery, 1)
			}
		}
	}

	var phase atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(phase.Load())
				if k >= nSlots {
					return
				}
				step(w, &slots[w][k])
			}
		}(w)
	}
	edges := make([]time.Time, nSlots+1)
	edges[0] = time.Now()
	for k := 0; k < nSlots; k++ {
		length := p.window
		if k == 0 {
			length = p.warm
		}
		time.Sleep(time.Until(edges[k].Add(length)))
		edges[k+1] = time.Now()
		phase.Store(int32(k + 1))
		if d.onEdge != nil {
			d.onEdge(k + 1)
		}
	}
	wg.Wait()

	out := &pass{}
	for k := 0; k < nSlots; k++ {
		win := &window{dur: edges[k+1].Sub(edges[k])}
		for w := range slots {
			s := &slots[w][k]
			win.ops += s.ops
			win.attempted += s.attempted
			win.failed += s.failed
			win.reads.Merge(&s.reads)
			win.writes.Merge(&s.writes)
			if rec != nil {
				rec.add(s.spans...)
			}
		}
		if rec != nil {
			winSpans[k].Start, winSpans[k].End = rec.since(edges[k]), rec.since(edges[k+1])
			rec.add(winSpans[k])
		}
		if k == 0 {
			out.otherAttempted, out.otherFailed = win.attempted, win.failed
			continue
		}
		out.windows = append(out.windows, win)
	}
	if rec != nil {
		rec.done(passSpan)
	}
	return out
}

func (p *pass) attempted() int64 {
	n := p.otherAttempted
	for _, w := range p.windows {
		n += w.attempted
	}
	return n
}

func (p *pass) failed() int64 {
	n := p.otherFailed
	for _, w := range p.windows {
		n += w.failed
	}
	return n
}

// ops and writes count the accepted operations and the write calls of
// the windows. Counters read at the window edges cover the same calls,
// give or take the one each worker had in flight at an edge.
func (p *pass) ops() (n int64) {
	for _, w := range p.windows {
		n += w.ops
	}
	return n
}

func (p *pass) writes() (n int64) {
	for _, w := range p.windows {
		n += int64(w.writes.Count())
	}
	return n
}

// each applies f to every window and returns the values in window order.
func (p *pass) each(f func(*window) float64) []float64 {
	out := make([]float64, len(p.windows))
	for i, w := range p.windows {
		out[i] = f(w)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is (max − min) / median of the window values.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which
// is what the acceptance check of BENCHMARK.json uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
