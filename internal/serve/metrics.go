package serve

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// registerMetrics binds the store's observability series into r: every
// counter is a scrape-time func over an atomic the store maintains
// anyway, and every gauge reads the current shard state through the
// same lock-free pointer loads the read path uses — registration adds
// nothing to Get/Put.
func (st *Store) registerMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	cf := func(a *atomic.Uint64) func() float64 {
		return func() float64 { return float64(a.Load()) }
	}
	r.CounterFunc("sosd_store_compactions_total", cf(&st.compactions))
	r.CounterFunc("sosd_store_flushes_total", cf(&st.flushes))
	r.CounterFunc("sosd_store_minor_merges_total", cf(&st.minorMerges))
	r.CounterFunc("sosd_store_major_merges_total", cf(&st.majorMerges))
	r.CounterFunc("sosd_store_delta_freezes_total", cf(&st.deltaFreezes))
	r.CounterFunc("sosd_store_readonly_drops_total", cf(&st.readOnlyDrops))
	r.CounterFunc("sosd_store_compact_ns_total", func() float64 { return float64(st.compactNs.Load()) })
	r.CounterFunc("sosd_store_run_probes_total", func() float64 { probes, _ := st.runProbes(); return float64(probes) })
	r.CounterFunc("sosd_store_multirun_ops_total", func() float64 { _, ops := st.runProbes(); return float64(ops) })
	r.GaugeFunc("sosd_store_read_amp", st.ReadAmp)
	r.GaugeFunc("sosd_store_delta_len", func() float64 { return float64(st.DeltaLen()) })
	r.GaugeFunc("sosd_store_pending_compactions", func() float64 {
		st.compactMu.Lock()
		defer st.compactMu.Unlock()
		return float64(st.compactPending)
	})
	for i := range st.shards {
		lbl := obs.Label{Key: "shard", Value: strconv.Itoa(i)}
		r.GaugeFunc("sosd_shard_runs", func() float64 {
			return float64(len(st.shards[i].Load().runs))
		}, lbl)
		r.GaugeFunc("sosd_shard_delta_len", func() float64 {
			return float64(st.shards[i].Load().deltaLen())
		}, lbl)
		r.GaugeFunc("sosd_shard_read_amp", func() float64 {
			amp, _ := st.windowAmp(i)
			return amp
		}, lbl)
		r.GaugeFunc("sosd_shard_compact_queued", func() float64 {
			st.compactMu.Lock()
			defer st.compactMu.Unlock()
			if st.compactQueued[i] {
				return 1
			}
			return 0
		}, lbl)
	}
}

// Compactions reports the number of completed shard compactions
// (background and manual; flushes and merges both count).
func (st *Store) Compactions() uint64 { return st.compactions.Load() }

// CompactTime reports the cumulative wall time spent flushing deltas,
// merging runs and rebuilding shard indexes — the rebuild-cost axis of
// the write-path tradeoff.
func (st *Store) CompactTime() time.Duration {
	return time.Duration(st.compactNs.Load())
}

// Flushes reports the number of delta-to-tier-run flushes (tiered
// stores only; a single-run store merges instead of flushing).
func (st *Store) Flushes() uint64 { return st.flushes.Load() }

// MinorMerges reports the number of tier-run consolidations that left
// the base run (and its tuned index) untouched.
func (st *Store) MinorMerges() uint64 { return st.minorMerges.Load() }

// MajorMerges reports the number of full-shard merges that rebuilt
// (and for learned families re-tuned) the base index.
func (st *Store) MajorMerges() uint64 { return st.majorMerges.Load() }

// ReadAmp reports the measured read amplification — run probes per
// lookup — accumulated over reads that hit tiered (multi-run) shard
// states. Reads on fully-compacted shards probe exactly one run and
// are not accumulated; a store that never tiered reports 1.
func (st *Store) ReadAmp() float64 {
	probes, ops := st.runProbes()
	if ops == 0 {
		return 1
	}
	return float64(probes) / float64(ops)
}

// runProbes sums every shard's multi-run reads and the run probes they
// made.
func (st *Store) runProbes() (probes, ops int64) {
	for i := range st.stats {
		probes += st.stats[i].probes.Load()
		ops += st.stats[i].ops.Load()
	}
	return probes, ops
}
