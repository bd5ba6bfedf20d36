package bench

// The tiered-run (LSM) write-path experiment: not a figure from the
// paper, which evaluates learned indexes read-only and names update
// support as the open problem. A frozen delta can flush into a small
// tier run (cheap, but every read now probes more runs) or merge into
// the base index (expensive for learned families, which re-tune the
// model). The policy axis — single-run versus tiered at different run
// bounds and compaction thresholds — makes the
// compaction-cost-versus-read-amplification tradeoff a table.
//
// Every number in it is work, not time. Each store replays one seeded
// YCSB script from one goroutine and waits out the compactions an
// operation queues before issuing the next, so its flushes and merges
// follow from the op sequence alone, and the table is the same on every
// run and at every GOMAXPROCS. A merge is priced in key visits by
// registry.BuildWork, the unit the store's own merge choice uses; a read
// in run probes. Timings of the same store live in benchmark/.

import (
	"fmt"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/serve"
)

func init() {
	register(Experiment{"serve-lsm", "tiered-run write path: tier policy sweep over YCSB mixes, replayed and priced in work", serveLSMSweep})
}

// YCSBTheta is the zipfian skew parameter of the YCSB core generator.
const YCSBTheta = 0.99

// mixedWorkload describes a YCSB-style operation mix over the mutable
// store. Writes alternate between inserting a fresh key and updating a
// present one; read and update keys follow the workload's distribution.
type mixedWorkload struct {
	name     string
	readFrac float64 // fraction of operations that are point reads
	zipfian  bool    // zipfian (theta=0.99) vs uniform key choice
}

// lsmWorkloads lists the experiment's YCSB-like mixes: A (50/50
// read/write) under zipfian and uniform key choice, and B (95/5).
func lsmWorkloads() []mixedWorkload {
	return []mixedWorkload{
		{"A", 0.50, true},
		{"A", 0.50, false},
		{"B", 0.95, true},
	}
}

// dist renders the workload's key-choice distribution.
func (wl mixedWorkload) dist() string {
	if wl.zipfian {
		return "zipf"
	}
	return "unif"
}

// stream is the workload's load.MixedOps stream over e's keys: reads
// draw present keys under the workload's distribution, writes alternate
// inserting a fresh key and updating a distribution-drawn present one,
// interleaved at the exact readFrac ratio, so compactions triggered by
// the write stream land in the middle of the read stream.
func (wl mixedWorkload) stream(e *Env, ops int, seed uint64) []load.Op {
	theta := 0.0
	if wl.zipfian {
		theta = YCSBTheta
	}
	return load.MixedOps(e.Keys, ops, wl.readFrac, theta, seed)
}

// compactThreshold sizes the delta so a run of ops operations forces
// several compactions per shard within one run at default scale; floor
// keeps it meaningful at test-suite scale.
func compactThreshold(ops, floor int) int {
	return max(ops/32, floor)
}

// tierPolicy is one point on the experiment's policy axis.
type tierPolicy struct {
	name      string
	maxRuns   int // serve.Config.MaxRuns (1 = classic single-run)
	threshold int // serve.Config.CompactThreshold
}

// tierPolicies lists the swept write-path policies at compaction
// threshold t: the single-run baseline (every compaction re-tunes the
// shard index), the store's default run bound of 4 at a quarter, once
// and four times t, and a loose bound of 8.
func tierPolicies(t int) []tierPolicy {
	return []tierPolicy{
		{"single", 1, t},
		{"tier4", 4, max(t/4, 16)},
		{"tier4", 4, t},
		{"tier4", 4, 4 * t},
		{"tier8", 8, t},
	}
}

// lsmShards is the store's shard count in every row.
const lsmShards = 4

// serveLSMSweep reports the tier-policy experiment: family × workload ×
// policy, one replayed script per row.
func serveLSMSweep(r *Run) ([]report.Table, error) {
	o := r.options
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	ops := o.Lookups
	tbl := report.New("serve-lsm",
		fmt.Sprintf("Tiered-run write path (amzn, %d shards, %d ops per replayed YCSB script): merges and the work they cost, per policy",
			lsmShards, ops)).
		Dims("index", "wl", "dist", "policy", "thresh").
		Int("flush", "flushes").
		Int("minor", "minor merges").
		Int("major", "major merges").
		Float("visits/w", "key visits/write", 1).
		Float("probes/r", "run probes/read", 3).
		Int("runs", "max runs").
		Int("delta", "entries").
		Float("B/key", "B", 2).
		Notef("visits/w: every flush, minor and major priced by registry.BuildWork (keys written, plus the passes that fit the run's index), summed and divided by the script's writes").
		Notef("probes/r: run probes over all the script's reads; a read the multi-run probe counters skip (single-run shard, or answered by the delta) counts one").
		Notef("runs, delta, B/key: widest shard's run count, pending delta entries and store bytes per live key when the script ends")
	for _, family := range r.families(registry.WriteFamilies) {
		for _, wl := range lsmWorkloads() {
			script := wl.stream(e, ops, o.Seed)
			for _, pol := range tierPolicies(compactThreshold(ops, 64)) {
				if err := replay(tbl, e, family, wl, pol, script); err != nil {
					return nil, err
				}
			}
		}
	}
	return []report.Table{*tbl}, nil
}

// replay plays script on a fresh store of family under pol — each op a
// direct Get or Put, then WaitCompactions — and adds the row of what it
// cost. A write carries the payload MixedOps gives it.
func replay(tbl *report.Table, e *Env, family string, wl mixedWorkload, pol tierPolicy, script []load.Op) error {
	reg := obs.NewRegistry()
	// A round flushes at least one write and merges at most once, and a
	// round with no flush needs a read to trigger it: 2 × ops events
	// never evict.
	j := obs.NewJournal(2 * len(script))
	st, err := serve.New(e.Keys, e.Payloads, serve.Config{
		Shards: lsmShards, Family: family, CompactThreshold: pol.threshold, MaxRuns: pol.maxRuns,
		Metrics: reg, Journal: j,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	reads := 0
	for i, op := range script {
		if op.Kind == load.Put {
			st.Put(op.Key, uint64(i)|1)
		} else {
			st.Get(op.Key)
			reads++
		}
		st.WaitCompactions()
	}
	events := j.Events()
	if uint64(len(events)) != j.Total() {
		return fmt.Errorf("serve-lsm %s: journal evicted %d of %d events", family, j.Total()-uint64(len(events)), j.Total())
	}
	var visits int64
	for _, ev := range events {
		visits += registry.BuildWork(family, ev.Keys, ev.Kind == "major")
	}
	probes, _ := reg.Value("sosd_store_run_probes_total")
	multi, _ := reg.Value("sosd_store_multirun_ops_total")
	tbl.Row([]string{family, wl.name, wl.dist(), pol.name, strconv.Itoa(pol.threshold)},
		float64(st.Flushes()), float64(st.MinorMerges()), float64(st.MajorMerges()),
		float64(visits)/float64(max(len(script)-reads, 1)),
		(probes+float64(reads)-multi)/float64(max(reads, 1)),
		float64(st.MaxRunCount()), float64(st.DeltaLen()),
		float64(st.SizeBytes())/float64(st.Len()))
	return nil
}
