package bench

// The tiered-run (LSM) write-path experiment: the serve-write
// experiment measures the single-store compaction tradeoff; this one
// sweeps the tiering policy itself. A frozen delta can flush into a
// small tier run (cheap, but every read now probes more runs) or merge
// into the base index (expensive for learned families, which re-tune
// the model). The policy axis — single-run versus tiered at different
// run bounds — makes the compaction-cost-versus-read-amplification
// tradeoff a table: write throughput and compaction time fall as runs
// stack, read p99 and measured read amplification rise, and the
// re-tune-aware merge policy sits between the extremes: it prices a
// merge in work (keys rewritten times the family's build passes, a
// re-tune's many) against the run probes the window's reads would save,
// and reads no clock.

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/serve"
)

func init() {
	register(Experiment{"serve-lsm", "tiered-run write path: tier policy sweep over YCSB mixes", serveLSMSweep})
}

// tierPolicy is one point on the experiment's policy axis.
type tierPolicy struct {
	name     string
	maxRuns  int     // serve.Config.MaxRuns (1 = classic single-run)
	ampBound float64 // serve.Config.AmpBound (0 = default)
}

// tierPolicies lists the swept write-path policies: the single-run
// baseline (every compaction re-tunes the shard index) and tiered
// variants at a tight and a loose run bound.
func tierPolicies() []tierPolicy {
	return []tierPolicy{
		{"single", 1, 0},
		{"tier4", 4, 0},
		{"tier8", 8, 0},
	}
}

// serveLSMSweep reports the tier-policy experiment: policy × family
// over zipfian YCSB A (write-heavy) and B (read-heavy).
func serveLSMSweep(r *Run) ([]report.Table, error) {
	o := r.options
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	ops := o.Lookups
	const shards = 4
	threshold := compactThreshold(ops, 64)
	families := r.families(registry.WriteFamilies)
	workloads := []mixedWorkload{
		{"A", 0.50, true},
		{"B", 0.95, true},
	}

	tbl := report.New("serve-lsm",
		fmt.Sprintf("Tiered-run write path (amzn, zipfian YCSB, %d shards, compact threshold %d): policy vs compaction cost vs read amplification",
			shards, threshold)).
		Dims("index", "wl", "policy").
		Float("kops/s", "kops/s", 1).
		Float("write(ns)", "ns", 1).
		Float("readp50", "µs", 2).
		Float("readp99", "µs", 2).
		Float("cmp(ms)", "ms", 2).
		Float("readamp", "probes/op", 2).
		Int("runs", "max runs").
		Int("flush", "flushes").
		Int("minor", "minor merges").
		Int("major", "major merges")
	for _, family := range families {
		for _, wl := range workloads {
			for _, pol := range tierPolicies() {
				st, err := serve.New(e.Keys, e.Payloads, serve.Config{
					Shards: shards, Family: family, CompactThreshold: threshold,
					MaxRuns: pol.maxRuns, AmpBound: pol.ampBound,
				})
				if err != nil {
					return nil, err
				}
				// The serve-write run, kept identical so policies are
				// comparable; the read histogram gives the tail quantiles.
				res, _, maxRuns := runMixed(e, st, wl, ops, o.Seed)
				tbl.Row([]string{family, wl.name, pol.name},
					res.Throughput()/1e3, res.Writes.Mean(),
					float64(res.Reads.Quantile(0.50))/1e3, float64(res.Reads.Quantile(0.99))/1e3,
					float64(st.CompactTime().Nanoseconds())/1e6, st.ReadAmp(),
					float64(maxRuns), float64(st.Flushes()),
					float64(st.MinorMerges()), float64(st.MajorMerges()))
				st.Close()
			}
		}
	}
	return []report.Table{*tbl}, nil
}
