package bench

// The mixed read/write serving experiment: not a figure from the
// paper, which evaluates learned indexes read-only and names update
// support as the open problem. YCSB-style read/write mixes drive the
// mutable store's delta-buffer write path, making the
// rebuild-cost-vs-staleness tradeoff of compaction measurable per
// index family (learned families re-tune and rebuild whole models;
// the B-tree baseline bulk-loads).

import (
	"fmt"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/load"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/serve"
)

func init() {
	register(Experiment{"serve-write", "mixed read/write workloads over the mutable store", serveWriteSweep})
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

// mixedWorkloads lists the experiment's YCSB-like mixes: A (50/50
// read/write), B (95/5), and C (read-only), A and B under both zipfian
// and uniform key choice.
func mixedWorkloads() []mixedWorkload {
	return []mixedWorkload{
		{"A", 0.50, true},
		{"A", 0.50, false},
		{"B", 0.95, true},
		{"B", 0.95, false},
		{"C", 1.00, true},
	}
}

// theta is the zipfian parameter of the workload's key choice; 0 is
// uniform.
func (wl mixedWorkload) theta() float64 {
	if wl.zipfian {
		return YCSBTheta
	}
	return 0
}

// stream is the workload's load.MixedOps stream over e's keys: reads
// draw present keys under the workload's distribution, writes alternate
// inserting a fresh key and updating a distribution-drawn present one,
// interleaved at the exact readFrac ratio, so compactions triggered by
// the write stream land in the middle of the measured read stream, as
// in a live system. Every serve-* experiment replays this one stream,
// which keeps their rows comparable.
func (wl mixedWorkload) stream(e *Env, ops int, seed uint64) []load.Op {
	return load.MixedOps(e.Keys, ops, wl.readFrac, wl.theta(), seed)
}

// compactThreshold sizes the delta so a run of ops operations forces
// several compactions per shard within one run at default scale; floor
// keeps it meaningful at test-suite scale.
func compactThreshold(ops, floor int) int {
	return max(ops/32, floor)
}

// runMixed drives wl's stream against a fresh st from one saturating
// client and returns once the background compactor has drained what the
// run queued, so st's compaction counters do not under-report rebuild
// work a short run left in flight. Staleness — pending delta entries
// and the widest shard's run count — is read at load stop, before that
// drain.
func runMixed(e *Env, st *serve.Store, wl mixedWorkload, ops int, seed uint64) (res *load.Result, deltaLen, maxRuns int) {
	res = load.Run(load.InProcess(st), wl.stream(e, ops, seed), load.Config{Workers: 1})
	deltaLen, maxRuns = st.DeltaLen(), st.MaxRunCount()
	st.WaitCompactions()
	return res, deltaLen, maxRuns
}

// writeDist renders a workload's key-choice distribution.
func writeDist(wl mixedWorkload) string {
	if wl.zipfian {
		return "zipf"
	}
	return "unif"
}

// serveWriteSweep reports the mixed read/write experiment: YCSB-style
// workloads per index family over the mutable sharded store, then a
// compaction-threshold sweep exposing the rebuild-cost-vs-staleness
// tradeoff.
func serveWriteSweep(r *Run) ([]report.Table, error) {
	o := r.options
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	ops := o.Lookups
	const shards = 4
	threshold := compactThreshold(ops, 64)
	families := r.families(registry.WriteFamilies)

	mixed := report.New("serve-write",
		fmt.Sprintf("Mixed read/write workloads (amzn, mid-sweep configs, %d shards, compact threshold %d)",
			shards, threshold)).
		Dims("index", "wl", "dist").
		Float("read%", "%", 0).
		Float("kops/s", "kops/s", 1).
		Float("read(ns)", "ns", 1).
		Float("write(ns)", "ns", 1).
		Int("compact", "compactions").
		Float("cmp(ms)", "ms", 2).
		Int("delta", "entries")
	for _, family := range families {
		for _, wl := range mixedWorkloads() {
			st, err := serve.New(e.Keys, e.Payloads, serve.Config{
				Shards: shards, Family: family, CompactThreshold: threshold,
			})
			if err != nil {
				return nil, err
			}
			res, deltaLen, _ := runMixed(e, st, wl, ops, o.Seed)
			mixed.Row([]string{family, wl.name, writeDist(wl)},
				wl.readFrac*100, res.Throughput()/1e3, res.Reads.Mean(), res.Writes.Mean(),
				float64(st.Compactions()), float64(st.CompactTime().Nanoseconds())/1e6,
				float64(deltaLen))
			st.Close()
		}
	}

	sweep := report.New("serve-write",
		"Compaction threshold sweep (workload A, zipfian): rebuild cost vs staleness").
		Dims("index", "thresh").
		Float("kops/s", "kops/s", 1).
		Int("compact", "compactions").
		Float("cmp(ms)", "ms", 2).
		Int("delta", "entries")
	wlA := mixedWorkload{name: "A", readFrac: 0.5, zipfian: true}
	for _, family := range families {
		for _, th := range []int{threshold / 4, threshold, threshold * 4} {
			if th < 16 {
				th = 16
			}
			st, err := serve.New(e.Keys, e.Payloads, serve.Config{
				Shards: shards, Family: family, CompactThreshold: th,
			})
			if err != nil {
				return nil, err
			}
			res, deltaLen, _ := runMixed(e, st, wlA, ops, o.Seed)
			sweep.Row([]string{family, strconv.Itoa(th)},
				res.Throughput()/1e3, float64(st.Compactions()),
				float64(st.CompactTime().Nanoseconds())/1e6, float64(deltaLen))
			st.Close()
		}
	}
	return []report.Table{*mixed, *sweep}, nil
}
