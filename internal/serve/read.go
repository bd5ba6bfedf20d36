package serve

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
)

// ampMinWindow is the minimum lookup count in a shard's measurement
// window before read amplification can trigger a merge — below it the
// estimate is noise.
const ampMinWindow = 4096

// ampCheckEvery is the read-op stride between read-path amplification
// evaluations, keeping the trigger check off the per-batch hot path.
const ampCheckEvery = 1024

// shardStats carries one shard's measured read-amplification window.
// probes/ops accumulate from multi-run reads only (a single-run shard
// has amplification 1 by construction and pays no accounting — see
// noteReads); probes0/ops0 snapshot the window base at the shard's last
// merge.
type shardStats struct {
	probes, ops   atomic.Int64
	probes0, ops0 atomic.Int64
	sinceCheck    atomic.Int64
}

type batchScratch struct {
	shard  []int32
	offs   []int32
	starts []int32
	gkeys  []core.Key
	gout   []uint64
	gfound []bool
	pos    []int32
}

// windowAmp reads shard i's measured read amplification and lookup
// count over the window since its last merge.
func (st *Store) windowAmp(i int) (amp float64, ops int64) {
	ss := &st.stats[i]
	ops = ss.ops.Load() - ss.ops0.Load()
	if ops > 0 {
		amp = float64(ss.probes.Load()-ss.probes0.Load()) / float64(ops)
	}
	return amp, ops
}

// noteReads folds a multi-run read's probe count into the shard's
// amplification window, and every ampCheckEvery ops re-evaluates the
// read-path merge trigger — so a shard whose writes stopped but whose
// reads still pay tiered probes gets merged without waiting for the
// next write. Callers guard it with probes > 0 && !s.single() on the
// state the read was served from: a single-run shard is not accounted
// (the run-probe counters and the laws over them count multi-run reads
// only), nor is a read that a pending write answered without probing a
// run — and the guard inlines where this function does not, so the
// compacted read path pays no call.
func (st *Store) noteReads(i, probes, ops int) {
	ss := &st.stats[i]
	ss.probes.Add(int64(probes))
	ss.ops.Add(int64(ops))
	if ss.sinceCheck.Add(int64(ops)) < ampCheckEvery {
		return
	}
	ss.sinceCheck.Store(0)
	s := st.shards[i].Load()
	if !s.single() && s.frozen == nil && st.overAmp(st.windowAmp(i)) {
		st.requestCompact(i)
	}
}

// overAmp reports whether a read window of ops reads at amplification
// amp exceeds the configured bound, with at least ampMinWindow reads of
// evidence.
func (st *Store) overAmp(amp float64, ops int64) bool {
	return ops >= ampMinWindow && amp > st.cfg.AmpBound
}

// resetAmpWindow re-bases shard i's amplification window after a merge
// changed its run structure.
func (st *Store) resetAmpWindow(i int) {
	ss := &st.stats[i]
	ss.probes0.Store(ss.probes.Load())
	ss.ops0.Store(ss.ops.Load())
}

// Get returns the live payload for key, or false when absent. Pending
// writes shadow the runs; newer runs shadow older. With a tracer
// configured, the sampled request records its shard-route and
// run-probe phases; every other request pays one atomic add (sp is nil
// then, and Span methods are nil-safe).
func (st *Store) Get(key core.Key) (uint64, bool) {
	sp := st.cfg.Tracer.Sample()
	i := st.shardOf(key)
	sp.Mark(obs.PhaseShardRoute)
	s := st.shards[i].Load()
	v, ok, probes := s.get(key)
	sp.Mark(obs.PhaseRunProbe)
	if probes > 0 && !s.single() {
		st.noteReads(i, probes, 1)
	}
	return v, ok
}

// GetBatch looks up a batch of keys across all shards: out[i] receives
// the live payload for keys[i] (0 when absent) and the number found is
// returned. Keys are gathered per shard, served on the caller's
// goroutine as one batched probe per shard (run-set probe plus delta
// overlay), and scattered back; concurrency comes from concurrent
// callers.
func (st *Store) GetBatch(keys []core.Key, out []uint64) int {
	if len(out) < len(keys) {
		panic("serve: GetBatch output shorter than key batch")
	}
	return st.getBatchInto(keys, out, nil)
}

// GetBatchFound is GetBatch plus an explicit per-key found bit: a zero
// payload is indistinguishable from absence in out alone, and found[i]
// is resolved against the same per-shard snapshot as the batch itself —
// unlike a follow-up Get, it cannot observe a write that landed after
// the batch was served.
func (st *Store) GetBatchFound(keys []core.Key, out []uint64, found []bool) int {
	if len(out) < len(keys) || len(found) < len(keys) {
		panic("serve: GetBatchFound output shorter than key batch")
	}
	return st.getBatchInto(keys, out, found)
}

func (st *Store) getBatchInto(keys []core.Key, out []uint64, fbits []bool) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	// One sampling decision per batch: a traced batch records its
	// route/probe/merge phases, every other batch pays one atomic add.
	sp := st.cfg.Tracer.Sample()
	nShards := len(st.shards)
	s := st.scratch.Get().(*batchScratch)
	s.ensure(n, nShards)

	// Count keys per shard, prefix-sum into gather offsets, then
	// stable-gather so each shard's keys are contiguous.
	counts := s.offs[:nShards+1]
	for i := range counts {
		counts[i] = 0
	}
	for i, x := range keys {
		sh := int32(st.shardOf(x))
		s.shard[i] = sh
		counts[sh+1]++
	}
	for i := 1; i <= nShards; i++ {
		counts[i] += counts[i-1]
	}
	starts := s.starts[:nShards+1]
	copy(starts, counts)
	for i, x := range keys {
		sh := s.shard[i]
		slot := counts[sh]
		counts[sh] = slot + 1
		s.gkeys[slot] = x
		s.pos[i] = slot
	}
	sp.Mark(obs.PhaseShardRoute)

	hits := 0
	for sh := 0; sh < nShards; sh++ {
		lo, hi := starts[sh], starts[sh+1]
		if lo == hi {
			continue
		}
		state := st.shards[sh].Load()
		n, probes := state.getBatch(s.gkeys[lo:hi], s.gout[lo:hi], s.gfound[lo:hi])
		hits += n
		if probes > 0 && !state.single() {
			st.noteReads(sh, probes, int(hi-lo))
		}
	}
	sp.Mark(obs.PhaseRunProbe)

	for i := 0; i < n; i++ {
		out[i] = s.gout[s.pos[i]]
	}
	if fbits != nil {
		for i := 0; i < n; i++ {
			fbits[i] = s.gfound[s.pos[i]]
		}
	}
	sp.Mark(obs.PhaseMerge)
	st.scratch.Put(s)
	return hits
}

// Scan visits the store's live pairs with key in [lo, hi) in ascending
// key order, stopping early when visit returns false; it returns the
// number of pairs visited. Each shard is scanned at one consistent
// snapshot (pending writes merged in); the snapshots of different
// shards are taken as the scan reaches them.
func (st *Store) Scan(lo, hi core.Key, visit func(core.Key, uint64) bool) int {
	if hi < lo {
		hi = lo
	}
	n := 0
	counting := func(k core.Key, v uint64) bool {
		n++
		return visit(k, v)
	}
	start := st.shardOf(lo)
	for sh := start; sh < len(st.shards); sh++ {
		if sh > start && st.seps[sh] >= hi {
			break
		}
		if !st.shards[sh].Load().scan(lo, hi, counting) {
			break
		}
	}
	return n
}

func (s *batchScratch) ensure(n, nShards int) {
	if cap(s.shard) < n {
		s.shard = make([]int32, n)
		s.gkeys = make([]core.Key, n)
		s.gout = make([]uint64, n)
		s.gfound = make([]bool, n)
		s.pos = make([]int32, n)
	}
	s.shard = s.shard[:n]
	s.gkeys = s.gkeys[:n]
	s.gout = s.gout[:n]
	s.gfound = s.gfound[:n]
	s.pos = s.pos[:n]
	if cap(s.offs) < nShards+1 {
		s.offs = make([]int32, nShards+1)
		s.starts = make([]int32, nShards+1)
	}
	s.offs = s.offs[:nShards+1]
	s.starts = s.starts[:nShards+1]
}
