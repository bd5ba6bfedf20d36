// Package serve implements the many-users serving scenario on top of
// the table layer: a Store range-partitions the keyspace across N
// shards, each an independent, atomically replaceable set of sorted
// runs built from any registered index family, answers batched lookups
// on the caller's goroutine, and absorbs writes into per-shard
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
	"runtime"
	"sync"
	"sync/atomic"

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

// defaultMaxRuns is the per-shard sorted-run bound when Config.MaxRuns
// is zero: enough tiers that a write burst flushes several deltas
// without forcing an index re-tune, few enough that point reads stay
// within a handful of run probes.
const defaultMaxRuns = 4

// defaultAmpBound is the measured read-amplification bound (run probes
// per lookup) when Config.AmpBound is zero: a tiered shard whose
// lookups average more probes than this is merged even below MaxRuns.
const defaultAmpBound = 2.5

// Config configures a Store.
type Config struct {
	// Shards is the number of range partitions; 0 defaults to
	// runtime.NumCPU(). Clamped to the number of distinct keys.
	Shards int

	// Family selects the registered index family used for every shard
	// (mid-sweep configuration); empty defaults to "PGM". Ignored when
	// builderFor is set.
	Family string

	// builderFor, when non-nil, supplies the index builder per shard,
	// allowing heterogeneous stores (e.g. a learned index on smooth
	// shards, a B-tree on adversarial ones). It is consulted at every
	// build of a shard's base run — New, each major merge, and Open's
	// rebuild of a base run snapshotted without an encoded index — with
	// the keys about to be indexed, possibly for several shards at once;
	// tier runs never ask it.
	builderFor func(shard int, keys []core.Key) (core.Builder, error)

	// Workers is how many shards a Snapshot exports at once; 0
	// defaults to min(Shards, runtime.NumCPU()).
	Workers int

	// CompactThreshold is the number of pending delta entries at which
	// a shard is queued for background compaction. 0 defaults to
	// DefaultCompactThreshold; negative disables background compaction
	// entirely (writes still land, Compact merges on demand).
	CompactThreshold int

	// MaxRuns bounds a shard's sorted-run count: a frozen delta flushes
	// into a new tier run until the shard holds more than MaxRuns runs,
	// then the tiering policy merges. 0 defaults to defaultMaxRuns. 1
	// (or negative) is the policy value under which every round merges
	// the whole shard into one run and re-tunes its index — the classic
	// single-run write path, and what Compact asks of a round whatever
	// MaxRuns is.
	MaxRuns int

	// AmpBound is the measured read-amplification (run probes per
	// lookup, over the window since the shard's last merge) above which
	// a tiered shard is merged even below MaxRuns. 0 defaults to
	// defaultAmpBound.
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

	scratch sync.Pool // *batchScratch
	closed  atomic.Bool

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
	stats        []shardStats // per-shard read-amp accounting
	compactions  atomic.Uint64
	compactNs    atomic.Int64
	flushes      atomic.Uint64
	minorMerges  atomic.Uint64
	majorMerges  atomic.Uint64
	deltaFreezes atomic.Uint64 // delta fills frozen for a tier flush
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
	if cfg.builderFor == nil && !registry.Has(cfg.Family) {
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
		cfg.MaxRuns = defaultMaxRuns
	}
	if cfg.AmpBound == 0 {
		cfg.AmpBound = defaultAmpBound
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

// start launches the background compactor over the already-populated
// shard array (shared by New and Open).
func (st *Store) start() {
	st.scratch.New = func() any { return &batchScratch{} }
	st.registerMetrics(st.cfg.Metrics)
	// One compactor: merges are CPU-bound index rebuilds, and a single
	// goroutine keeps them off the serving cores; requests queue.
	st.compactWG.Add(1)
	go st.compactor()
}

// buildShard builds the shard's base run — no run yet, so the store's
// family is the tag — and publishes it. Only New calls it, where each
// shard is touched by exactly one goroutine.
func (st *Store) buildShard(i int, keys []core.Key, payloads []uint64) error {
	t, id, err := st.buildRun(i, 0, st.cfg.Family, keys, payloads, nil)
	if err != nil {
		return fmt.Errorf("serve: shard %d: %w", i, err)
	}
	st.shards[i].Store(&shardState{runs: []*table.Table{t}, runIDs: []string{id}, del: emptyDelta})
	return nil
}

// Close stops the background compactor (draining any queued
// compactions first), then syncs and closes any attached write-ahead
// logs. No writes may be in flight or issued after Close. Reads stay
// served: Get, GetBatch, GetBatchFound and Scan answer from the state
// the store held when Close returned.
func (st *Store) Close() {
	if st.closed.Swap(true) {
		return
	}
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
// every single Get/Put and GetBatch gather, so it runs the branch-free
// predecessor kernel, whose hard-to-predict compares cost no flush.
func (st *Store) shardOf(x core.Key) int {
	return search.PredBranchless(st.seps, x, 0, len(st.seps))
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

// runCount reports shard i's current sorted-run count (1 = fully
// compacted).
func (st *Store) runCount(i int) int { return len(st.shards[i].Load().runs) }

// MaxRunCount reports the largest run count across shards.
func (st *Store) MaxRunCount() int {
	m := 0
	for i := range st.shards {
		if n := st.runCount(i); n > m {
			m = n
		}
	}
	return m
}

// Shard returns shard i's current base run (a consistent immutable
// snapshot; pending deltas and newer tier runs are not reflected).
func (st *Store) Shard(i int) *table.Table { return st.shards[i].Load().base() }

// Separators returns a copy of the shard boundary keys: seps[i] is the
// first key owned by shard i (keys below every separator also route to
// shard 0). The router uses them to partition batches the same way the
// store does.
func (st *Store) Separators() []core.Key {
	return append([]core.Key(nil), st.seps...)
}
