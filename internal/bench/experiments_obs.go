package bench

// The observability experiment: run the full serving stack — store,
// network front end, metrics registry, tracer, and compaction journal —
// under a mixed YCSB-A workload with compactions in flight, and check
// the conservation laws that make the metrics trustworthy. Every row
// is only reported after the laws hold: served + shed == offered on
// both sides of the wire, delta freezes == flushes == journal flush
// events, merge counts match the journal, and the registry's probe
// counters reproduce the store's measured read amplification. The
// open phase also carries the network front end's overload laws: past
// a pinned capacity the server sheds with explicit RetryLater refusals
// and its admission queue never grows past its bound. A metrics layer
// that can drop or double-count under load is worse than none; this
// experiment is the regression gate for that claim, and it reports
// counts only — timings of the same stack are benchmark/'s wire-point
// and routed-batch. See DESIGN.md "Observability" and "Network
// serving".

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/load"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
)

func init() {
	register(Experiment{"serve-obs", "observability and network laws: metrics, traces and the compaction journal under mixed load, then admission control under 2x overload", serveObsSweep})
}

// obsTraceEvery samples aggressively (1 in 64) so a default-sized run
// exercises the trace path thousands of times, not dozens.
const obsTraceEvery = 64

// The pinned server configuration of the overload phase. The
// coalescer's pacing makes capacity = netBatchCap/netWindow by
// construction — 16k lookups/s — machine-independent as long as the
// store can drain a 16-key batch in under a millisecond (every family
// can, by orders of magnitude). The small admission queue is what
// bounds accepted latency: no request waits behind more than
// netMaxPending others, whatever the offered rate.
const (
	netWindow     = time.Millisecond
	netBatchCap   = 16
	netMaxPending = 32
)

func netCapacity() float64 {
	return float64(netBatchCap) / netWindow.Seconds()
}

// pinnedNet is the server configuration that pins that capacity; every
// network experiment's overload laws are stated against it.
func pinnedNet() net.Config {
	return net.Config{CoalesceWindow: netWindow, BatchCap: netBatchCap, MaxPending: netMaxPending}
}

// obsLaws checks every conservation law after a run has quiesced.
// offered is the number of operations the client attempted, and
// maxPending the server's admission bound when the phase pins one.
func obsLaws(phase string, offered, maxPending int, res *load.Result, s *net.Stats,
	st *serve.Store, reg *obs.Registry, j *obs.Journal) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("serve-obs %s: %s", phase, fmt.Sprintf(format, args...))
	}
	// Client side: nothing silently dropped.
	if res.Errors > 0 {
		return fail("%d hard errors (sheds must be RetryLater)", res.Errors)
	}
	if res.Ops()+res.Sheds != offered {
		return fail("%d ops + %d sheds != %d offered", res.Ops(), res.Sheds, offered)
	}
	// Server side agrees with the client, request for request.
	if s.Accepted+s.Shed != uint64(offered) {
		return fail("server accepted %d + shed %d != %d offered", s.Accepted, s.Shed, offered)
	}
	if s.Accepted != uint64(res.Ops()) || s.Shed != uint64(res.Sheds) {
		return fail("server (%d, %d) disagrees with client (%d, %d)",
			s.Accepted, s.Shed, res.Ops(), res.Sheds)
	}
	// Every admitted request records exactly one service-time sample.
	if s.Latency == nil || s.Latency.Count() != s.Accepted {
		return fail("latency count %d != accepted %d", s.Latency.Count(), s.Accepted)
	}
	// Coalesced keys can never exceed admissions, and with no sheds
	// every admitted Get went through the coalescer exactly once.
	if s.BatchedKeys > s.Accepted {
		return fail("batched keys %d > accepted %d", s.BatchedKeys, s.Accepted)
	}
	// Bounded accepted latency, in its work form: no admitted request
	// ever queued behind more than the admission bound, however far past
	// capacity the offered rate went.
	if maxPending > 0 && s.MaxQueueDepth > uint64(maxPending) {
		return fail("queue high-water %d > admission bound %d", s.MaxQueueDepth, maxPending)
	}
	// The wire carries the registry: the stats frame's vars must agree
	// with the server's own counter (end-to-end codec check).
	wire := varValue(s.Vars, "sosd_net_accepted_total")
	if wire != float64(s.Accepted) {
		return fail("wire var accepted %v != %d", wire, s.Accepted)
	}
	// Write path: every frozen delta was flushed, and the journal saw
	// each flush and merge the store counted.
	if st.Flushes() != st.DeltaFreezes() {
		return fail("flushes %d != delta freezes %d (lost flush work)", st.Flushes(), st.DeltaFreezes())
	}
	if j.Count("flush") != st.Flushes() {
		return fail("journal flushes %d != store flushes %d", j.Count("flush"), st.Flushes())
	}
	if j.Count("minor") != st.MinorMerges() || j.Count("major") != st.MajorMerges() {
		return fail("journal merges (%d, %d) != store (%d, %d)",
			j.Count("minor"), j.Count("major"), st.MinorMerges(), st.MajorMerges())
	}
	if j.Total() != j.Count("flush")+j.Count("minor")+j.Count("major") {
		return fail("journal total %d != sum of kinds", j.Total())
	}
	// The registry's probe counters reproduce the store's measured
	// read amplification exactly (same atomics, quiescent store).
	probes, _ := reg.Value("sosd_store_run_probes_total")
	mops, _ := reg.Value("sosd_store_multirun_ops_total")
	if mops > 0 && math.Abs(probes/mops-st.ReadAmp()) > 1e-9 {
		return fail("registry read amp %v != store %v", probes/mops, st.ReadAmp())
	}
	// Sampling actually happened.
	if v, _ := reg.Value("sosd_trace_sampled_total"); v == 0 {
		return fail("tracer sampled nothing at 1/%d", obsTraceEvery)
	}
	return nil
}

func varValue(vars []obs.Var, name string) float64 {
	for _, v := range vars {
		if v.Name == name {
			return v.Value
		}
	}
	return math.NaN()
}

// serveObsSweep runs a closed-loop YCSB-A phase at full capacity (no
// sheds, compactions in flight) and an open-loop deep-overload phase
// (sheds guaranteed), each on a freshly instrumented stack, asserting
// the conservation laws before reporting the row.
func serveObsSweep(r *Run) ([]report.Table, error) {
	o := r.options
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	// A floor of 16, below the 64 serve-lsm's policies scale from: the
	// law checks need flushes to actually happen even at the test
	// suite's tiny scale.
	ops := o.Lookups
	threshold := compactThreshold(ops, 16)
	const shards = 4

	tbl := report.New("serve-obs",
		fmt.Sprintf("Observability conservation laws (amzn, zipfian YCSB A, %d shards, compact threshold %d, trace 1/%d): rows appear only after every law held",
			shards, threshold, obsTraceEvery)).
		Dims("index", "phase").
		Float("offered", "ops", 0).
		Float("served", "ops", 0).
		Float("shed", "ops", 0).
		Float("batch", "keys", 1).
		Float("flush", "", 0).
		Float("minor", "", 0).
		Float("major", "", 0).
		Float("journal", "events", 0).
		Float("readamp", "probes/op", 2).
		Float("traces", "sampled", 0).
		Notef("laws: ops+sheds==offered on both sides; latency count==accepted; freezes==flushes==journal flush events; merge counts match journal; registry probes reproduce read amp; queue high-water <= admission bound where pinned").
		Notef("offered, served and shed are the server's counts (served+shed==offered); batch is the mean coalesced keys per GetBatch round").
		Notef("closed phase runs at full capacity with compactions in flight; open phase offers 2x a capacity pinned at %d keys per %v window, admission queue %d, so admission control must shed",
			netBatchCap, netWindow, netMaxPending)

	for _, family := range r.families([]string{"PGM"}) {
		run := func(phase string, ncfg net.Config, workers int, rate float64) error {
			reg := obs.NewRegistry()
			journal := obs.NewJournal(obs.DefaultJournalCap)
			tracer := obs.NewTracer(reg, obsTraceEvery)
			// MaxRuns 2 makes the tier bound bite within a default-sized
			// run, so the merge laws are exercised, not vacuous.
			st, err := serve.New(e.Keys, e.Payloads, serve.Config{
				Shards: shards, Family: family, CompactThreshold: threshold,
				MaxRuns: 2,
				Metrics: reg, Journal: journal, Tracer: tracer,
			})
			if err != nil {
				return err
			}
			defer st.Close()
			ncfg.Metrics = reg
			ncfg.Tracer = tracer
			srv, err := net.Listen("127.0.0.1:0", st, ncfg)
			if err != nil {
				return err
			}
			defer srv.Close()
			pool, err := net.DialPool(srv.Addr().String(), 8)
			if err != nil {
				return err
			}
			defer pool.Close()

			stream := load.MixedOps(e.Keys, ops, 0.50, YCSBTheta, o.Seed)
			res := load.Run(pool, stream, load.Config{Workers: workers, Rate: rate, Seed: o.Seed})
			st.WaitCompactions()
			s, err := pool.Stats()
			if err != nil {
				return err
			}
			if err := obsLaws(phase, len(stream), ncfg.MaxPending, res, s, st, reg, journal); err != nil {
				return err
			}
			if rate == 0 && st.Flushes() == 0 {
				return fmt.Errorf("serve-obs %s: no flushes — the write-path laws were vacuous", phase)
			}
			traces, _ := reg.Value("sosd_trace_sampled_total")
			batch := 0.0
			if s.Batches > 0 {
				batch = float64(s.BatchedKeys) / float64(s.Batches)
			}
			tbl.Row([]string{family, phase},
				float64(s.Accepted+s.Shed), float64(s.Accepted), float64(s.Shed), batch,
				float64(st.Flushes()), float64(st.MinorMerges()), float64(st.MajorMerges()),
				float64(journal.Total()), st.ReadAmp(), traces)
			return nil
		}

		// Full capacity, closed loop: compactions in flight, no sheds.
		if err := run("closed", net.Config{}, 32, 0); err != nil {
			return nil, err
		}
		// Deep overload, open loop: pin capacity low and offer 2x, so
		// the shed side of every law is exercised.
		if err := run("open200%", pinnedNet(), 96, 2*netCapacity()); err != nil {
			return nil, err
		}
	}
	return []report.Table{*tbl}, nil
}
