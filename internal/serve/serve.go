// Package serve implements the many-users serving scenario on top of
// the table layer: a Store range-partitions the keyspace across N
// shards, each an independent, atomically replaceable set of sorted
// runs built from any registered index family, answers batched lookups
// through a fixed goroutine pool, and absorbs writes into per-shard
// delta buffers that a background compactor flushes into small tier
// runs and merges back into the learned indexes under a cost-model
// tiering policy.
//
// Concurrency model: reads (Get, GetBatch, Scan, Range) are lock-free —
// they load each shard's current state (run set + delta buffers)
// through one atomic pointer — and may run from any number of
// goroutines, and every read — point or batched, one run or many, clean
// or dirty — takes the same path: probe the run set newest-first
// (table.GetRuns / table.GetBatchRuns, which report per-key found
// bits), then overlay the pending deltas. Writes are single-writer per
// shard and take one path too: Put, Delete, Apply and WAL replay all go
// through commit, which serializes on a per-shard mutex, logs the ops,
// derives the new state off to the side (copy-on-write delta), and
// publishes it with one pointer swap, so readers never block and never
// observe a half-applied write. Compaction freezes a shard's delta and,
// off the write lock (writes continue into a fresh active delta),
// takes one kind of step — merge the newest runs plus the frozen delta
// into one run that replaces them — as often as the tiering policy
// asks, then republishes the shard with another swap. See DESIGN.md
// "Write path".
package serve

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/search"
	"repro/internal/table"
)

// DefaultCompactThreshold is the per-shard pending-write count at which
// background compaction kicks in when Config.CompactThreshold is zero.
// It bounds both read-path overlay work and the copy-on-write cost of
// individual writes.
const DefaultCompactThreshold = 4096

// DefaultMaxRuns is the per-shard sorted-run bound when Config.MaxRuns
// is zero: enough tiers that a write burst flushes several deltas
// without forcing an index re-tune, few enough that point reads stay
// within a handful of run probes.
const DefaultMaxRuns = 4

// DefaultAmpBound is the measured read-amplification bound (run probes
// per lookup) when Config.AmpBound is zero: a tiered shard whose
// lookups average more probes than this is merged even below MaxRuns.
const DefaultAmpBound = 2.5

// ampMinWindow is the minimum lookup count in a shard's measurement
// window before read amplification can trigger a merge — below it the
// estimate is noise.
const ampMinWindow = 4096

// ampCheckEvery is the read-op stride between read-path amplification
// evaluations, keeping the trigger check off the per-batch hot path.
const ampCheckEvery = 1024

// probeNsEstimate is the assumed cost in nanoseconds of one extra run
// probe — the unit the tiering policy uses to convert a window's
// lookup count into the read-time value of merging runs away. A
// deliberate round figure for an out-of-cache search descent; only the
// major-versus-minor tip point depends on it, never correctness.
const probeNsEstimate = 100

// Config configures a Store.
type Config struct {
	// Shards is the number of range partitions; 0 defaults to
	// runtime.NumCPU(). Clamped to the number of distinct keys.
	Shards int

	// Family selects the registered index family used for every shard
	// (mid-sweep configuration); empty defaults to "PGM". Ignored when
	// BuilderFor is set.
	Family string

	// BuilderFor, when non-nil, supplies the index builder per shard,
	// allowing heterogeneous stores (e.g. a learned index on smooth
	// shards, a B-tree on adversarial ones). It is consulted at every
	// build of a shard's base run — New, each major merge, and Open's
	// rebuild of a base run snapshotted without an encoded index — with
	// the keys about to be indexed; tier runs never ask it.
	BuilderFor func(shard int, keys []core.Key) (core.Builder, error)

	// Workers is the goroutine-pool size serving batched lookups; 0
	// defaults to min(Shards, runtime.NumCPU()).
	Workers int

	// CompactThreshold is the number of pending delta entries at which
	// a shard is queued for background compaction. 0 defaults to
	// DefaultCompactThreshold; negative disables background compaction
	// entirely (writes still land, Compact merges on demand).
	CompactThreshold int

	// MaxRuns bounds a shard's sorted-run count: a frozen delta flushes
	// into a new tier run until the shard holds more than MaxRuns runs,
	// then the tiering policy merges. 0 defaults to DefaultMaxRuns. 1
	// (or negative) is the policy value under which every round merges
	// the whole shard into one run and re-tunes its index — the classic
	// single-run write path, and what Compact asks of a round whatever
	// MaxRuns is.
	MaxRuns int

	// AmpBound is the measured read-amplification (run probes per
	// lookup, over the window since the shard's last merge) above which
	// a tiered shard is merged even below MaxRuns. 0 defaults to
	// DefaultAmpBound.
	AmpBound float64

	// SyncWrites, for a store attached to a snapshot directory (Open),
	// fsyncs the shard's write-ahead log on every Put/Delete. Off by
	// default: appends still reach the OS immediately (surviving a
	// process crash), and SyncWAL provides an explicit storage barrier.
	SyncWrites bool

	// WriteHook, when non-nil, observes every Put and Delete the store
	// accepts (not Apply batches: a replica does not re-stream what it
	// was streamed). It is called under the owning shard's write lock
	// after the WAL append and the state publish, so invocations for one
	// shard arrive in exactly the order the writes took effect. It must
	// be fast and must not call back into the store. The replication
	// primary uses it to assign per-shard sequence numbers and feed its
	// stream log.
	WriteHook func(shard int, op persist.Op)

	// Metrics, when non-nil, receives the store's observability series
	// at construction: per-shard run/delta/read-amp gauges and the
	// compaction counters, all bound as scrape-time funcs over the
	// counters the store maintains anyway — the read and write paths pay
	// nothing. Use a fresh Registry per store (series names collide
	// otherwise).
	Metrics *obs.Registry

	// Journal, when non-nil, records every flush, minor merge, and
	// major merge with the tiering-policy inputs that chose it.
	Journal *obs.Journal

	// Tracer, when non-nil, samples Get/GetBatch requests and records
	// their shard-route / run-probe / merge phase latencies.
	Tracer *obs.Tracer
}

// Store is a sharded, mutable key→payload store. See the package
// comment for the concurrency model.
type Store struct {
	cfg     Config
	seps    []core.Key // seps[i] = first key owned by shard i
	shards  []atomic.Pointer[shardState]
	writeMu []sync.Mutex // per-shard single-writer locks

	// Persistence state (zero, and every WAL slot nil, unless the store
	// was opened from a snapshot directory): the attached directory
	// (absolute), one live WAL per shard (slots guarded by writeMu), a
	// mutex serializing snapshot/manifest commits, the last committed
	// generation and manifest entries (guarded by persistMu), the
	// per-shard map of already-committed run files (guarded by
	// persistMu), and the first background failure.
	dir           string
	wals          []*persist.WAL
	persistMu     sync.Mutex
	exportMu      sync.Mutex // serializes foreign-directory Snapshots only
	gen           uint64
	meta          []persist.ShardMeta
	persistedRuns []map[*table.Table]persist.RunMeta
	persistErrMu  sync.Mutex
	persistErr    error

	jobs      chan job
	workersWG sync.WaitGroup
	scratch   sync.Pool // *batchScratch
	closed    atomic.Bool

	// Replica mode: a read-only store refuses Put/Delete (each refusal
	// counted) while Apply — the replication stream's entry
	// point — still lands batches. Flipped by SetReadOnly at any time.
	readOnly      atomic.Bool
	readOnlyDrops atomic.Uint64

	// Background-compaction work queue. One mutex guards the queue,
	// the per-shard queued flags, the queued-or-running count, and the
	// stop flag; compactCond wakes the compactor when work (or stop)
	// arrives, idleCond wakes WaitCompactions waiters when the count
	// drains to zero.
	compactMu      sync.Mutex
	compactCond    *sync.Cond
	idleCond       *sync.Cond
	compactQueue   []int
	compactQueued  []bool
	compactPending int
	compactStop    bool

	compactWG    sync.WaitGroup
	stats        []shardStats // per-shard read-amp accounting and merge-cost EWMAs
	compactions  atomic.Uint64
	compactNs    atomic.Int64
	flushes      atomic.Uint64
	minorMerges  atomic.Uint64
	majorMerges  atomic.Uint64
	deltaFreezes atomic.Uint64 // delta fills frozen for a tier flush
}

// shardStats carries one shard's measured read-amplification window
// and rebuild-cost estimates. probes/ops accumulate from multi-run
// reads only (a single-run shard has amplification 1 by construction
// and pays no accounting — see noteReads); probes0/ops0 snapshot the
// window base at the shard's last merge. The per-key cost EWMAs are measured from
// actual compactions: major from full-merge index re-tunes, minor from
// tier flushes and tier merges.
type shardStats struct {
	probes, ops   atomic.Int64
	probes0, ops0 atomic.Int64
	sinceCheck    atomic.Int64
	majorNsPerKey atomic.Uint64 // math.Float64bits
	minorNsPerKey atomic.Uint64 // math.Float64bits
}

func ewmaLoad(a *atomic.Uint64) float64 { return math.Float64frombits(a.Load()) }

// ewmaUpdate folds one observation into a cost estimate: seeded by the
// first observation, then smoothed so a single slow or fast merge
// cannot whipsaw the policy.
func ewmaUpdate(a *atomic.Uint64, obs float64) {
	old := math.Float64frombits(a.Load())
	if old == 0 {
		a.Store(math.Float64bits(obs))
		return
	}
	a.Store(math.Float64bits(0.7*old + 0.3*obs))
}

type job struct {
	s     *shardState
	shard int
	keys  []core.Key
	out   []uint64
	found []bool // per-key found bits, resolved by every job
	hits  *atomic.Int64
	wg    *sync.WaitGroup
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

// New builds a Store over sorted keys and payloads. The key array is
// split into contiguous, duplicate-respecting ranges of near-equal
// size; each range becomes one shard with its own index.
func New(keys []core.Key, payloads []uint64, cfg Config) (*Store, error) {
	if len(keys) == 0 {
		return nil, errors.New("serve: empty key set")
	}
	if len(keys) != len(payloads) {
		return nil, errors.New("serve: keys and payloads length mismatch")
	}
	if !core.IsSorted(keys) {
		return nil, errors.New("serve: keys not sorted")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.NumCPU()
	}
	if cfg.Shards > len(keys) {
		cfg.Shards = len(keys)
	}
	if cfg.Family == "" {
		cfg.Family = "PGM"
	}
	if cfg.BuilderFor == nil && !registry.Has(cfg.Family) {
		return nil, fmt.Errorf("serve: unknown index family %q", cfg.Family)
	}

	// Partition: shard i starts at the i-th near-equal cut, advanced
	// past any duplicate run so one key never straddles two shards.
	n := len(keys)
	starts := make([]int, 0, cfg.Shards)
	prev := -1
	for i := 0; i < cfg.Shards; i++ {
		s := i * n / cfg.Shards
		for s > 0 && s < n && keys[s] == keys[s-1] {
			s++
		}
		if s >= n || s <= prev {
			continue // duplicate-heavy data can exhaust distinct cuts
		}
		starts = append(starts, s)
		prev = s
	}
	st := newStore(cfg, len(starts))
	for i, lo := range starts {
		st.seps[i] = keys[lo]
	}
	starts = append(starts, n) // shard i owns keys[starts[i]:starts[i+1]]
	err := st.populate(func(i int) error {
		lo, hi := starts[i], starts[i+1]
		return st.buildShard(i, keys[lo:hi], payloads[lo:hi])
	})
	if err != nil {
		return nil, err
	}
	st.start()
	return st, nil
}

// populate fills every shard slot, concurrently — shards are
// independent, index builds CPU-bound and snapshot loads I/O-bound —
// and returns the shards' errors, joined.
func (st *Store) populate(fill func(shard int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(st.shards))
	for i := range st.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fill(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// newStore is the one constructor behind New and Open: cfg's zero-valued
// knobs defaulted, nShards empty shard slots allocated. The caller fills
// the slots its own way (build, or load and replay) and calls start.
// The compaction queue is usable from here on — a replayed delta past
// the threshold queues its shard before the compactor exists, and
// start's compactor finds the request waiting.
func newStore(cfg Config, nShards int) *Store {
	if cfg.Workers <= 0 {
		cfg.Workers = min(nShards, runtime.NumCPU())
	}
	if cfg.CompactThreshold == 0 {
		cfg.CompactThreshold = DefaultCompactThreshold
	}
	if cfg.MaxRuns == 0 {
		cfg.MaxRuns = DefaultMaxRuns
	}
	if cfg.AmpBound == 0 {
		cfg.AmpBound = DefaultAmpBound
	}
	st := &Store{
		cfg:           cfg,
		seps:          make([]core.Key, nShards),
		shards:        make([]atomic.Pointer[shardState], nShards),
		writeMu:       make([]sync.Mutex, nShards),
		wals:          make([]*persist.WAL, nShards),
		compactQueued: make([]bool, nShards),
		stats:         make([]shardStats, nShards),
	}
	st.compactCond = sync.NewCond(&st.compactMu)
	st.idleCond = sync.NewCond(&st.compactMu)
	return st
}

// start launches the worker pool and the background compactor over the
// already-populated shard array (shared by New and Open).
func (st *Store) start() {
	st.scratch.New = func() any { return &batchScratch{} }
	st.jobs = make(chan job)
	for w := 0; w < st.cfg.Workers; w++ {
		st.workersWG.Add(1)
		go st.worker()
	}
	st.registerMetrics(st.cfg.Metrics)
	// One compactor: merges are CPU-bound index rebuilds, and a single
	// goroutine keeps them off the serving cores; requests queue.
	st.compactWG.Add(1)
	go st.compactor()
}

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
	r.CounterFunc("sosd_store_compact_ns_total", func() float64 { return float64(st.compactNs.Load()) })
	r.CounterFunc("sosd_store_run_probes_total", func() float64 {
		var probes int64
		for i := range st.stats {
			probes += st.stats[i].probes.Load()
		}
		return float64(probes)
	})
	r.CounterFunc("sosd_store_multirun_ops_total", func() float64 {
		var ops int64
		for i := range st.stats {
			ops += st.stats[i].ops.Load()
		}
		return float64(ops)
	})
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

// journalEvent appends one write-path event with the tiering-policy
// inputs as the compactor saw them (a nil journal drops it).
func (st *Store) journalEvent(i int, kind string, runsBefore, runsAfter, keys int, dur time.Duration) {
	amp, ops := st.windowAmp(i)
	st.cfg.Journal.Append(obs.Event{
		Shard: i, Kind: kind,
		RunsBefore: runsBefore, RunsAfter: runsAfter, Keys: keys, Dur: dur,
		ReadAmp: amp, WindowOps: ops,
		MajorNs: ewmaLoad(&st.stats[i].majorNsPerKey),
		MinorNs: ewmaLoad(&st.stats[i].minorNsPerKey),
	})
}

// buildShard picks the shard's builder — no run yet, so the store's
// family is the tag — constructs its table and publishes it as the
// shard's base run. Only New calls it, where each shard is touched by
// exactly one goroutine.
func (st *Store) buildShard(i int, keys []core.Key, payloads []uint64) error {
	b, id, err := st.baseBuilder(i, st.cfg.Family, keys)
	if err != nil {
		return err
	}
	t, err := table.Build(b, keys, payloads, search.BinarySearch)
	if err != nil {
		return fmt.Errorf("serve: shard %d: %w", i, err)
	}
	st.shards[i].Store(&shardState{runs: []*table.Table{t}, runIDs: []string{id}, del: emptyDelta})
	return nil
}

func (st *Store) worker() {
	defer st.workersWG.Done()
	for j := range st.jobs {
		n, probes := j.s.getBatch(j.keys, j.out, j.found)
		j.hits.Add(int64(n))
		if probes > 0 && !j.s.single() {
			st.noteReads(j.shard, probes, len(j.keys))
		}
		j.wg.Done()
	}
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
	if !s.single() && s.frozen == nil && st.ampWindowExceeded(i) {
		st.requestCompact(i)
	}
}

// ampWindowExceeded reports whether shard i's measured read
// amplification since its last merge exceeds the configured bound
// (with at least ampMinWindow lookups of evidence).
func (st *Store) ampWindowExceeded(i int) bool {
	amp, ops := st.windowAmp(i)
	return ops >= ampMinWindow && amp > st.cfg.AmpBound
}

// resetAmpWindow re-bases shard i's amplification window after a merge
// changed its run structure.
func (st *Store) resetAmpWindow(i int) {
	ss := &st.stats[i]
	ss.probes0.Store(ss.probes.Load())
	ss.ops0.Store(ss.ops.Load())
}

// Close stops the worker pool and the background compactor (draining
// any queued compactions first), then syncs and closes any attached
// write-ahead logs. No reads or writes may be in flight or issued
// after Close; shard states remain readable through Get.
func (st *Store) Close() {
	if st.closed.Swap(true) {
		return
	}
	close(st.jobs)
	st.workersWG.Wait()
	st.compactMu.Lock()
	st.compactStop = true
	st.compactCond.Broadcast()
	st.compactMu.Unlock()
	st.compactWG.Wait()
	for i := range st.wals {
		st.writeMu[i].Lock()
		w := st.wals[i]
		st.wals[i] = nil
		st.writeMu[i].Unlock()
		if w != nil {
			if err := w.Close(); err != nil {
				st.notePersistErr(err)
			}
		}
	}
}

// shardOf routes a key to the shard owning its range: the rightmost
// shard whose separator is <= key (keys below every separator belong
// to shard 0, where they are correctly reported absent). It sits on
// every single Get/Put and GetBatch gather, so the generic sort.Search
// closure (an indirect call per probe plus a mispredict-prone branch)
// is replaced by an inlined branch-free ladder: one conditional step
// reduces the separator count to a power of two, then each halving is
// a compare materialized with SETcc and folded in by mask arithmetic.
func (st *Store) shardOf(x core.Key) int {
	seps := st.seps
	lo, width := 0, len(seps)
	if width > 0 {
		w := 1 << (bits.Len(uint(width)) - 1)
		if w != width {
			c := 0
			if seps[width-w] <= x {
				c = 1
			}
			lo = (width - w) & -c
		}
		for w > 1 {
			half := w >> 1
			c := 0
			if seps[lo+half-1] <= x {
				c = 1
			}
			lo += half & -c
			w = half
		}
		c := 0
		if seps[lo] <= x {
			c = 1
		}
		lo += c
	}
	// lo is now the first separator above x; its predecessor owns the
	// key, with below-all-separators keys clamped into shard 0.
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// NumShards reports the number of range partitions actually built.
func (st *Store) NumShards() int { return len(st.shards) }

// Len reports the total number of live key/payload pairs, counting
// pending inserts and deletions not yet compacted.
func (st *Store) Len() int {
	total := 0
	for i := range st.shards {
		total += st.shards[i].Load().liveLen()
	}
	return total
}

// SizeBytes reports the summed index footprint across every shard's
// runs plus the pending delta buffers.
func (st *Store) SizeBytes() int {
	total := 0
	for i := range st.shards {
		s := st.shards[i].Load()
		for _, t := range s.runs {
			total += t.SizeBytes()
		}
		total += s.del.sizeBytes()
		if s.frozen != nil {
			total += s.frozen.sizeBytes()
		}
	}
	return total
}

// DeltaLen reports the pending (uncompacted) write entries across all
// shards — the staleness axis of the write-path tradeoff.
func (st *Store) DeltaLen() int {
	total := 0
	for i := range st.shards {
		total += st.shards[i].Load().deltaLen()
	}
	return total
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

// DeltaFreezes reports the number of non-empty delta fills frozen and
// handed to the tier flusher — the independent end of the
// flushes==freezes conservation law (they diverge only when a flush
// build fails, which PersistErr-style accounting would surface).
func (st *Store) DeltaFreezes() uint64 { return st.deltaFreezes.Load() }

// Policy reports the store's effective compaction policy after
// defaulting: the pending-write threshold that triggers a flush, the
// tier run bound, and the read-amplification bound.
func (st *Store) Policy() (threshold, maxRuns int, ampBound float64) {
	return st.cfg.CompactThreshold, st.cfg.MaxRuns, st.cfg.AmpBound
}

// ConfigIDs reports each shard's current index config ID: the codec
// tag of its base run, which tracks re-tunes across major merges.
func (st *Store) ConfigIDs() []string {
	out := make([]string, len(st.shards))
	for i := range out {
		out[i] = st.shards[i].Load().runIDs[0]
	}
	return out
}

// RunCount reports shard i's current sorted-run count (1 = fully
// compacted).
func (st *Store) RunCount(i int) int { return len(st.shards[i].Load().runs) }

// MaxRunCount reports the largest run count across shards.
func (st *Store) MaxRunCount() int {
	m := 0
	for i := range st.shards {
		if n := st.RunCount(i); n > m {
			m = n
		}
	}
	return m
}

// ReadAmp reports the measured read amplification — run probes per
// lookup — accumulated over reads that hit tiered (multi-run) shard
// states. Reads on fully-compacted shards probe exactly one run and
// are not accumulated; a store that never tiered reports 1.
func (st *Store) ReadAmp() float64 {
	var probes, ops int64
	for i := range st.stats {
		probes += st.stats[i].probes.Load()
		ops += st.stats[i].ops.Load()
	}
	if ops == 0 {
		return 1
	}
	return float64(probes) / float64(ops)
}

// Shard returns shard i's current base run (a consistent immutable
// snapshot; pending deltas and newer tier runs are not reflected).
func (st *Store) Shard(i int) *table.Table { return st.shards[i].Load().base() }

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

// Put inserts or updates key with payload. The write is visible to
// every subsequent read (same or other goroutines) as soon as Put
// returns; it lands in the shard's delta buffer and is flushed or
// merged into the shard's run set by a later compaction.
func (st *Store) Put(key core.Key, payload uint64) {
	st.write(persist.Op{Key: key, Val: payload})
}

// Delete removes key. Deleting an absent key is a no-op that still
// costs a tombstone until the next major merge.
func (st *Store) Delete(key core.Key) {
	st.write(persist.Op{Key: key, Tomb: true})
}

// write is the gate in front of commit for direct writes: a read-only
// replica refuses them (the network front end rejects them earlier with
// an explicit error; this drop counter catches in-process callers).
func (st *Store) write(op persist.Op) {
	if st.readOnly.Load() {
		st.readOnlyDrops.Add(1)
		return
	}
	st.commit(st.shardOf(op.Key), []persist.Op{op}, st.cfg.WriteHook)
}

// Apply lands a batch of replicated ops on shard i, in op order with
// last-write-wins semantics — the follower half of the replication
// stream. It bypasses the read-only gate (it IS the write path of a
// read-only replica) and passes commit no hook (a replica does not
// re-stream what it was streamed). Ops must route to shard i.
func (st *Store) Apply(i int, ops []persist.Op) error {
	if i < 0 || i >= len(st.shards) {
		return fmt.Errorf("serve: no shard %d", i)
	}
	for _, op := range ops {
		if st.shardOf(op.Key) != i {
			return fmt.Errorf("serve: apply: key %d routes to shard %d, not %d", op.Key, st.shardOf(op.Key), i)
		}
	}
	if len(ops) > 0 {
		st.commit(i, ops, nil)
	}
	return nil
}

// commit is the store's one mutation: it lands ops, which must all
// route to shard i, in op order as a single state change. Put, Delete,
// Apply and Open's WAL replay all end here.
func (st *Store) commit(i int, ops []persist.Op, hook func(shard int, op persist.Op)) {
	st.writeMu[i].Lock()
	// WAL-before-state: the records must be on their way to disk before
	// any reader can observe the writes, or a crash could lose an
	// acknowledged update. A WAL failure (disk full, dead device) stops
	// the logging of this batch — no sync of a log with a hole in it —
	// and is stashed rather than dropped: the writes stay visible in
	// memory and PersistErr reports that durability is degraded.
	if w := st.wals[i]; w != nil {
		var err error
		for _, op := range ops {
			if err = w.Append(op); err != nil {
				break
			}
		}
		if err == nil && st.cfg.SyncWrites {
			err = w.Sync()
		}
		if err != nil {
			st.notePersistErr(err)
		}
	}
	s := st.shards[i].Load()
	ns := &shardState{runs: s.runs, runIDs: s.runIDs, del: s.del.apply(ops), frozen: s.frozen}
	st.shards[i].Store(ns)
	// The hook runs under the lock so that one shard's invocations arrive
	// in the order its writes took effect.
	if hook != nil {
		for _, op := range ops {
			hook(i, op)
		}
	}
	st.writeMu[i].Unlock()
	if st.overThreshold(ns) {
		st.requestCompact(i)
	}
}

// overThreshold reports whether s's active delta is due for the
// background compactor: compaction on, the threshold reached, and no
// round in flight on the shard (the compactor asks again when that one
// publishes).
func (st *Store) overThreshold(s *shardState) bool {
	return st.cfg.CompactThreshold > 0 && s.frozen == nil && s.del.len() >= st.cfg.CompactThreshold
}

// SetReadOnly flips the store's replica gate: while set, Put and
// Delete are refused (counted in ReadOnlyDrops) and Apply remains the
// only write path. Reads are unaffected.
func (st *Store) SetReadOnly(v bool) { st.readOnly.Store(v) }

// ReadOnly reports whether the store currently refuses direct writes.
func (st *Store) ReadOnly() bool { return st.readOnly.Load() }

// ReadOnlyDrops reports the number of direct writes refused by the
// read-only gate.
func (st *Store) ReadOnlyDrops() uint64 { return st.readOnlyDrops.Load() }

// Separators returns a copy of the shard boundary keys: seps[i] is the
// first key owned by shard i (keys below every separator also route to
// shard 0). The router uses them to partition batches the same way the
// store does.
func (st *Store) Separators() []core.Key {
	return append([]core.Key(nil), st.seps...)
}

// requestCompact queues shard i for background compaction, at most one
// outstanding request per shard (a burst of writes past the threshold
// would otherwise flood the queue with duplicates and starve the other
// shards). The request is never dropped: the queue is unbounded and
// grows under the same mutex that dedupes it, so a shard past its
// threshold is compacted even if its writes stop the moment the
// trigger fires. After Close has stopped the compactor, requests are
// refused under that same mutex — there is no window where a request
// can be accepted and never served.
func (st *Store) requestCompact(i int) {
	st.compactMu.Lock()
	if st.compactStop || st.compactQueued[i] {
		st.compactMu.Unlock()
		return
	}
	st.compactQueued[i] = true
	st.compactQueue = append(st.compactQueue, i)
	st.compactPending++
	st.compactCond.Signal()
	st.compactMu.Unlock()
}

// WaitCompactions blocks until every background compaction queued so
// far has completed, parked on a condition variable (a learned-index
// re-tune runs for milliseconds; spinning would pin a core for the
// duration). Unlike Compact it forces nothing: shards below the
// threshold keep their deltas.
func (st *Store) WaitCompactions() {
	st.compactMu.Lock()
	for st.compactPending > 0 {
		st.idleCond.Wait()
	}
	st.compactMu.Unlock()
}

// compactor serves the work queue. A shard whose active delta refilled
// past the threshold during its own compaction is re-compacted in
// place. On stop the queue is drained before exit, so every accepted
// request completes and WaitCompactions waiters are always released.
// A failed round has folded the delta back (see compactShard); its
// error goes to PersistErr and ends that request — the shard's next
// write past the threshold queues it again.
func (st *Store) compactor() {
	defer st.compactWG.Done()
	st.compactMu.Lock()
	for {
		for len(st.compactQueue) == 0 && !st.compactStop {
			st.compactCond.Wait()
		}
		if len(st.compactQueue) == 0 {
			st.compactMu.Unlock()
			return // stopped and drained
		}
		i := st.compactQueue[0]
		st.compactQueue = st.compactQueue[1:]
		st.compactQueued[i] = false
		st.compactMu.Unlock()

		for {
			if err := st.compactShard(i, false); err != nil {
				st.notePersistErr(err)
				break
			}
			if !st.overThreshold(st.shards[i].Load()) {
				break
			}
		}

		st.compactMu.Lock()
		st.compactPending--
		if st.compactPending == 0 {
			st.idleCond.Broadcast()
		}
	}
}

// compactShard runs one compaction round on shard i: freeze the active
// delta (writes continue into a fresh one, readers continue on the
// frozen snapshot), take the merge steps the tiering policy asks for
// off the write lock (buildCompacted), and publish the new run set with
// one pointer swap. force is the Compact entry; all it does is set the
// round's run bound to 1, the policy value under which a round merges
// everything into a single freshly indexed, tombstone-free base run. A
// shard already being compacted is a no-op, as is one with nothing
// pending and nothing for the policy to merge. Freezing is what marks
// the shard as being compacted (writes carry the frozen delta along,
// and nothing else clears it), so the state loaded at publish time is
// the frozen one plus the writes that arrived meanwhile; a merge-only
// round (read amplification or force over a clean delta) freezes the
// empty delta.
func (st *Store) compactShard(i int, force bool) error {
	maxRuns := max(st.cfg.MaxRuns, 1)
	if force {
		maxRuns = 1
	}
	st.writeMu[i].Lock()
	s := st.shards[i].Load()
	// A clean shard still has work when it holds more runs than the
	// bound allows or a read-amp trigger is up — the merge-only round a
	// pure read load can queue.
	mergeDue := len(s.runs) > maxRuns || (len(s.runs) > 1 && st.ampWindowExceeded(i))
	if s.frozen != nil || (s.del.len() == 0 && !mergeDue) {
		st.writeMu[i].Unlock()
		return nil
	}
	frozen := s.del
	if maxRuns > 1 && frozen.len() > 0 {
		// A delta fill handed to the flusher: the independent end of the
		// flushes==freezes conservation law the serve-obs experiment (and
		// metriclint) holds the write path to.
		st.deltaFreezes.Add(1)
	}
	st.shards[i].Store(&shardState{runs: s.runs, runIDs: s.runIDs, del: emptyDelta, frozen: frozen})
	rs := runSet{runs: s.runs, runIDs: s.runIDs}
	st.writeMu[i].Unlock()

	start := time.Now()
	res, err := st.buildCompacted(i, rs, frozen, maxRuns)

	st.writeMu[i].Lock()
	s2 := st.shards[i].Load()
	if err != nil {
		// Rebuild failed: fold the frozen delta back under the writes
		// that arrived meanwhile so nothing is lost.
		st.shards[i].Store(&shardState{runs: s2.runs, runIDs: s2.runIDs, del: s2.pendingDelta()})
		st.writeMu[i].Unlock()
		return fmt.Errorf("serve: compact shard %d: %w", i, err)
	}
	st.shards[i].Store(&shardState{runs: res.runs, runIDs: res.runIDs, del: s2.del})
	st.writeMu[i].Unlock()
	if len(res.runs) <= len(s.runs) {
		st.resetAmpWindow(i) // a merge, not only a flush, changed the run structure
	}
	st.compactions.Add(1)
	st.compactNs.Add(time.Since(start).Nanoseconds())
	// For an attached store the new run set is made durable now, then
	// the shard's WAL is truncated to the still-pending writes. On
	// failure the old on-disk state stays authoritative — replaying the
	// full old WAL over the old run set reproduces exactly the state
	// just published, so nothing is lost, and PersistErr reports it.
	if st.dir != "" {
		if perr := st.persistShard(i); perr != nil {
			st.notePersistErr(perr)
		}
	}
	return nil
}

// runSet is a shard's runs and their codec tags, as a compaction round
// carries them from step to step off the write lock. runIDs[0], the base
// run's tag, is the shard's: it names the family of its tier runs and
// the catalog entry its next major rebuilds from.
type runSet struct {
	runs   []*table.Table
	runIDs []string
}

// buildCompacted is the tiering policy: which merge steps a round takes
// over run set rs and the frozen delta, under run bound maxRuns. Tiered
// (maxRuns > 1), a non-empty frozen delta is flushed into a run of its
// own, and only when that leaves the shard over the bound — in run
// count or in measured read amplification — does one consolidation
// follow, from the run chooseMajor picks: minor keeps the base and its
// tuned index, major rewrites the shard. Untiered, the one step is the
// major, frozen delta included.
func (st *Store) buildCompacted(i int, rs runSet, frozen *delta, maxRuns int) (runSet, error) {
	from := 0
	if maxRuns > 1 {
		if frozen.len() > 0 {
			var err error
			if rs, err = st.mergeTop(i, rs, len(rs.runs), frozen); err != nil {
				return rs, err
			}
			frozen = emptyDelta
		}
		if len(rs.runs) <= maxRuns && !st.ampWindowExceeded(i) {
			return rs, nil
		}
		if !st.chooseMajor(i, rs.runs) {
			from = 1
		}
	}
	return st.mergeTop(i, rs, from, frozen)
}

// mergeTop is the one compaction step: merge rs.runs[from:] and the
// frozen delta into a single run that replaces them. Where from points
// is all that tells the three kinds apart. from == len(runs) merges the
// delta alone — a flush, which stacks a tier run. from == 0 takes every
// run — a major: nothing older is left to shadow, so tombstones drop,
// and the result is the new base run under the index baseBuilder picks
// (for learned families, re-tuned). Anything between is a minor: tombstones
// are carried, since they still shadow the runs below, and the result
// gets the family's cheap tier index like a flush.
func (st *Store) mergeTop(i int, rs runSet, from int, frozen *delta) (runSet, error) {
	kind, count, nsPerKey := "minor", &st.minorMerges, &st.stats[i].minorNsPerKey
	switch from {
	case 0:
		kind, count, nsPerKey = "major", &st.majorMerges, &st.stats[i].majorNsPerKey
	case len(rs.runs):
		kind, count = "flush", &st.flushes // priced with the minors: same builder, same kind of run
	}
	layers := make([]mergeLayer, 0, len(rs.runs)-from+1)
	for _, t := range rs.runs[from:] {
		layers = append(layers, runLayer(t))
	}
	layers = append(layers, deltaLayer(frozen))
	t0 := time.Now()
	keys, vals, tombs := mergeLayers(layers, from == 0)
	out := rs
	var nt *table.Table
	var id string
	var err error
	switch {
	case from > 0:
		nt, id, err = st.buildTierRun(rs.runIDs[0], keys, vals, tombs)
	case len(keys) == 0:
		nt, id = table.Empty(search.BinarySearch), rs.runIDs[0]
	default:
		// The builder is a function of the old base's tag and the merged
		// keys, resolved here and never at Open, so warm loads pay no
		// training cost up front and a warm-opened shard rebuilds exactly
		// as one that never restarted.
		var b core.Builder
		if b, id, err = st.baseBuilder(i, rs.runIDs[0], keys); err == nil {
			nt, err = table.Build(b, keys, vals, search.BinarySearch)
		}
	}
	if err != nil {
		return rs, err
	}
	dur := time.Since(t0)
	if len(keys) > 0 {
		ewmaUpdate(nsPerKey, float64(dur.Nanoseconds())/float64(len(keys)))
	}
	count.Add(1)
	st.journalEvent(i, kind, len(rs.runs), from+1, len(keys), dur)
	// Three-index slices: the appends copy, never write into the arrays
	// the published shard state still holds.
	out.runs = append(rs.runs[:from:from], nt)
	out.runIDs = append(rs.runIDs[:from:from], id)
	return out, nil
}

// chooseMajor decides a triggered consolidation's destination: fold
// the upper tiers into one run (minor — cheap, but the base keeps
// amplifying reads by one extra probe) or rewrite the whole shard
// (major — pays the measured index re-tune). The extra cost of a major
// is estimated from the per-key cost EWMAs measured on this shard's
// own past compactions — a learned family's re-tune prices majors high
// where a B-tree's bulk load prices them near a minor — and weighed
// against the read-amp reduction: the lookups of the current window,
// each saved about one run probe by the deeper merge.
func (st *Store) chooseMajor(i int, runs []*table.Table) bool {
	if len(runs) <= 2 {
		return true // one upper run: a minor merge would be a no-op
	}
	total, upper := 0, 0
	for r, t := range runs {
		total += t.Len()
		if r > 0 {
			upper += t.Len()
		}
	}
	if total == 0 || 2*upper >= total {
		return true // upper tiers rival the base: rewrite once, properly
	}
	ss := &st.stats[i]
	majorNs := ewmaLoad(&ss.majorNsPerKey) * float64(total)
	minorNs := ewmaLoad(&ss.minorNsPerKey) * float64(upper)
	_, windowOps := st.windowAmp(i)
	saved := float64(windowOps) * probeNsEstimate
	return majorNs-minorNs <= saved
}

// buildTierRun indexes a small run (a flushed delta or a minor merge)
// with the cheap tier entry of the shard's family — binary search or a
// coarse learned bound, never the full per-base tuning.
func (st *Store) buildTierRun(shardTag string, keys []core.Key, vals []uint64, tombs []bool) (*table.Table, string, error) {
	if len(keys) == 0 {
		return table.Empty(search.BinarySearch), "BS", nil
	}
	family, _ := registry.ParseID(shardTag)
	nb, id := registry.Tier(family, keys)
	t, err := table.BuildTombed(nb.Builder, keys, vals, tombs, search.BinarySearch)
	if err != nil {
		return nil, "", err
	}
	return t, id, nil
}

// baseBuilder is the one place a base run's index is chosen: the builder
// for shard i's base run over keys, and the codec tag to record for it.
// tag is the tag of the base run being replaced, or the store's family
// for a shard not built yet. A caller-supplied Config.BuilderFor decides
// every base build (it may be the only way to build a family the
// catalog does not know); custom builders have no catalog label, and
// the family name alone is still a usable codec tag. Otherwise the
// catalog's rule applies: registry.Rebuild.
func (st *Store) baseBuilder(i int, tag string, keys []core.Key) (core.Builder, string, error) {
	if st.cfg.BuilderFor != nil {
		b, err := st.cfg.BuilderFor(i, keys)
		if err != nil {
			return nil, "", err
		}
		return b, registry.ID(b.Name(), ""), nil
	}
	nb, id, ok := registry.Rebuild(tag, keys)
	if !ok {
		return nil, "", fmt.Errorf("serve: cannot resolve builder for codec tag %q", tag)
	}
	return nb.Builder, id, nil
}

// Compact synchronously merges every shard's runs and pending writes
// into a single tombstone-free base run, waiting out any in-flight
// background compactions. It is safe alongside concurrent reads and
// writes, but it keeps re-merging a shard until its delta is empty and
// one run remains, so a continuous concurrent write load can keep it
// from returning — quiesce writers when a guaranteed-complete
// checkpoint is needed. Intended for checkpoints, tests, and
// read-latency-sensitive phases.
func (st *Store) Compact() error {
	for i := range st.shards {
		for {
			s := st.shards[i].Load()
			if s.frozen != nil {
				runtime.Gosched() // background merge in flight; wait for its publish
				continue
			}
			if s.del.len() == 0 && s.single() {
				break
			}
			if err := st.compactShard(i, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// GetBatch looks up a batch of keys across all shards: out[i] receives
// the live payload for keys[i] (0 when absent) and the number found is
// returned. Keys are gathered per shard, served by the worker pool as
// one batched job per shard (run-set probe plus delta overlay), and
// scattered back, so a batch touching S shards runs on up to S workers
// concurrently.
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

	var wg sync.WaitGroup
	var hits atomic.Int64
	for sh := 0; sh < nShards; sh++ {
		lo, hi := starts[sh], starts[sh+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		st.jobs <- job{
			s:     st.shards[sh].Load(),
			shard: sh,
			keys:  s.gkeys[lo:hi],
			out:   s.gout[lo:hi],
			found: s.gfound[lo:hi],
			hits:  &hits,
			wg:    &wg,
		}
	}
	wg.Wait()
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
	return int(hits.Load())
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

// Range returns the store's live pairs with key in [lo, hi) as freshly
// allocated slices, merged across shards and pending writes.
func (st *Store) Range(lo, hi core.Key) ([]core.Key, []uint64) {
	var ks []core.Key
	var vs []uint64
	st.Scan(lo, hi, func(k core.Key, v uint64) bool {
		ks = append(ks, k)
		vs = append(vs, v)
		return true
	})
	return ks, vs
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
