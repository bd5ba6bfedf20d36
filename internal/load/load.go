// Package load is the op-stream driver of the serving experiments that
// run a stack under load: one Run pushes a mixed Get/Put stream
// (MixedOps) into a Target — a net.Pool over a socket, a repl.Router
// over a topology — from a fixed set of workers, and records each
// accepted operation's latency into a read or a write stats.Histogram.
// serve-lsm replays the same MixedOps streams without Run, one op at a
// time, because it counts work rather than timing it.
//
// Config.Rate selects which question the run answers. With Rate == 0
// the loop is closed: each worker issues its next operation the instant
// the previous one returns, which measures the target's capacity and
// its latency *under saturation*. With Rate > 0 the loop is open: a
// Poisson arrival schedule is fixed before the run, workers never issue
// early, and latency is measured from the scheduled arrival, not from
// the moment the operation was actually sent. A target that stalls
// therefore keeps accumulating lateness for every request scheduled
// during the stall — the measurement is free of coordinated omission,
// unlike a closed loop, whose workers politely stop offering load
// whenever the target backs up. See DESIGN.md "Measurement".
//
// Run spawns its workers, joins them, and merges their histograms
// before returning: no goroutine outlives the call.
package load

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// Target is the operation sink of a run. Its operations can be refused
// or fail — a network client under server admission control: a shed
// refusal (an error whose chain carries Shed() bool == true) counts
// into Result.Sheds, any other error into Result.Errors, and neither
// lands in a histogram — a shed is an explicit fast refusal, not a
// served request, and folding its latency into the histogram would let
// a server flatter its tail by shedding. net.Pool and repl.Router
// satisfy it directly.
type Target interface {
	// TryGet returns the live payload for key, or false when absent.
	TryGet(key core.Key) (uint64, bool, error)
	// TryPut inserts or updates key.
	TryPut(key core.Key, payload uint64) error
}

// shedder is the marker carried by refusal errors; declared structurally
// so load does not import the transport package that sheds.
type shedder interface{ Shed() bool }

// isShed reports whether err marks a load-shed refusal.
func isShed(err error) bool {
	var s shedder
	return errors.As(err, &s) && s.Shed()
}

// Kind discriminates the operations of a workload stream.
type Kind uint8

const (
	// get is a point read of Key.
	get Kind = iota
	// Put is an insert or update of Key with payload.
	Put
)

// Op is one operation of a workload stream.
type Op struct {
	Kind    Kind
	Key     core.Key
	payload uint64
}

// Config configures a run.
type Config struct {
	// Workers is the number of concurrent generator goroutines; 0
	// defaults to runtime.NumCPU().
	Workers int

	// Rate is the open loop's target aggregate arrival rate in
	// operations per second; 0 runs the closed loop.
	Rate float64

	// Seed derives the open loop's Poisson arrival schedule.
	Seed uint64
}

// Result summarizes one run.
type Result struct {
	// Reads and Writes hold the latency of every accepted Get and Put,
	// merged across workers. In the open loop a latency spans from the
	// operation's scheduled arrival to its completion (queueing delay
	// included).
	Reads, Writes stats.Histogram

	// Sheds counts operations the target explicitly refused under
	// admission control (see Target); Errors counts operations that
	// failed for any other reason. Neither is in Ops or a histogram, so
	// Throughput is goodput: accepted operations per second.
	Sheds, Errors int

	// elapsed is the wall time of the whole run.
	elapsed time.Duration

	// checksum sums the payloads of found reads (the paper's
	// keep-the-benchmark-honest device).
	checksum uint64
}

// Ops is the number of accepted operations.
func (r *Result) Ops() int { return int(r.Reads.Count() + r.Writes.Count()) }

// Throughput is Ops/elapsed in operations per second.
func (r *Result) Throughput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.Ops()) / r.elapsed.Seconds()
}

// exec issues one operation and records its outcome: an accepted one
// lands in its kind's histogram with latency measured from t0, a
// refused or failed one only in its counter.
func (r *Result) exec(t Target, op Op, t0 time.Time) {
	var err error
	hist := &r.Writes
	if op.Kind == get {
		var v uint64
		var found bool
		if v, found, err = t.TryGet(op.Key); err == nil && found {
			r.checksum += v
		}
		hist = &r.Reads
	} else {
		err = t.TryPut(op.Key, op.payload)
	}
	switch {
	case err == nil:
		hist.Record(time.Since(t0).Nanoseconds())
	case isShed(err):
		r.Sheds++
	default:
		r.Errors++
	}
}

// sleepSlack is how far ahead of a scheduled arrival the open loop
// stops sleeping and starts yield-spinning: time.Sleep routinely
// overshoots by tens of microseconds, which at high arrival rates
// would smear the schedule the measurement is defined against.
const sleepSlack = 200 * time.Microsecond

// waitUntil returns at sched, or at once when it has passed.
func waitUntil(sched time.Time) {
	for d := time.Until(sched); d > 0; d = time.Until(sched) {
		if d > sleepSlack {
			time.Sleep(d - sleepSlack)
		} else {
			runtime.Gosched()
		}
	}
}

// Run drives ops through t: worker w executes ops[w], ops[w+W], ... in
// order, timing each operation individually. With cfg.Rate == 0 an
// operation is timed from the moment it is sent. With cfg.Rate > 0
// arrival instants are fixed up front from cfg.Seed, no operation is
// issued before its arrival, and its latency runs from the *scheduled*
// arrival — a worker running behind schedule executes late operations
// immediately and the backlog wait lands in the histogram.
func Run(t Target, ops []Op, cfg Config) *Result {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	var arrivals []time.Duration
	if cfg.Rate > 0 {
		arrivals = dataset.Arrivals(len(ops), cfg.Rate, cfg.Seed)
	}
	parts := make([]Result, workers)
	var wg sync.WaitGroup
	epoch := time.Now()
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(ops); i += workers {
				var t0 time.Time
				if arrivals == nil {
					t0 = time.Now()
				} else {
					t0 = epoch.Add(arrivals[i])
					waitUntil(t0)
				}
				parts[w].exec(t, ops[i], t0)
			}
		}()
	}
	wg.Wait()
	res := &Result{elapsed: time.Since(epoch)}
	for i := range parts {
		w := &parts[i]
		res.Reads.Merge(&w.Reads)
		res.Writes.Merge(&w.Writes)
		res.Sheds += w.Sheds
		res.Errors += w.Errors
		res.checksum += w.checksum
	}
	return res
}
