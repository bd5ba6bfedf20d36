// Package table implements the end-to-end serving unit of the
// benchmark: a Table owns a sorted key array, its payload array, a
// search-bound index (core.Index) and a last-mile search function, and
// serves the full key→payload path — point reads, range scans, and a
// batched lookup fast path.
//
// The batched path amortizes the two halves of a lookup over a batch:
// bound prediction goes through core.LookupBatch (PGM's batch descent,
// every other family's Lookup per key), and the last-mile search runs
// as rounds of independent probes across the batch, so the random
// data-array loads of different keys overlap in the memory system
// instead of serializing behind one binary search at a time. There is
// one such path (runs.go): a block kernel that resolves position and
// presence per key, and GetBatchRuns, which composes it across an
// ordered set of 1..N runs; Table.GetBatch is its one-run caller.
package table

import (
	"errors"
	"runtime"

	"repro/internal/core"
	"repro/internal/search"
)

// Table is an immutable sorted run of key/payload pairs served through
// a pluggable index. All read methods are safe for concurrent use.
// Its arrays may live only as long as it does (a mapped run file that
// a cleanup on the Table unmaps): each read method keeps t reachable to
// its last array read, and a caller of a view keeps t to its own.
//
// A Table built with NewTombed additionally carries a tombstone bit per
// pair: the run participates in an LSM-tiered run set where a newer
// run's tombstone must shadow older runs' occurrences of its key. The
// run-set read path (GetBatchRuns and its one-run caller GetBatch,
// GetRuns) reads a tombstoned pair as absent; Get, Range and Scan serve
// the raw pairs and are reserved for tombstone-free tables.
type Table struct {
	keys     []core.Key
	payloads []uint64
	tombs    []bool // optional tombstone bits, parallel to keys; nil = none
	idx      core.Index
	fn       search.Fn
}

// New wraps existing data in a Table. keys must be sorted ascending
// and the same length as payloads; fn nil defaults to branchless
// binary search (search.BranchlessSearch).
// The Table aliases both slices — callers must not mutate them.
func New(keys []core.Key, payloads []uint64, idx core.Index, fn search.Fn) (*Table, error) {
	return NewTombed(keys, payloads, nil, idx, fn)
}

// NewTombed wraps existing data plus a parallel tombstone-bit array in
// a Table (see the type comment for tombstone semantics). tombs may be
// nil (no tombstones) or exactly len(keys) long; an all-false array is
// normalized to nil so a nil Tombs() stays a cheap run-set fast-path
// gate.
func NewTombed(keys []core.Key, payloads []uint64, tombs []bool, idx core.Index, fn search.Fn) (*Table, error) {
	return wrap(keys, payloads, tombs, idx, fn, core.IsSorted(keys))
}

// wrap is NewTombed with the keys' order already checked.
func wrap(keys []core.Key, payloads []uint64, tombs []bool, idx core.Index, fn search.Fn, sorted bool) (*Table, error) {
	if idx == nil {
		return nil, errors.New("table: nil index")
	}
	if len(keys) != len(payloads) {
		return nil, errors.New("table: keys and payloads length mismatch")
	}
	if !sorted {
		return nil, errors.New("table: keys not sorted")
	}
	if fn == nil {
		fn = search.BranchlessSearch
	}
	t := &Table{keys: keys, payloads: payloads, idx: idx, fn: fn}
	if tombs != nil {
		if len(tombs) != len(keys) {
			return nil, errors.New("table: tombs and keys length mismatch")
		}
		for _, tb := range tombs {
			if tb {
				t.tombs = tombs
				break
			}
		}
	}
	return t, nil
}

// Build constructs the index with b and wraps the result in a Table.
func Build(b core.Builder, keys []core.Key, payloads []uint64, fn search.Fn) (*Table, error) {
	return BuildTombed(b, keys, payloads, nil, fn)
}

// BuildTombed constructs the index with b and wraps data plus
// tombstone bits in a Table — the constructor of freshly flushed or
// minor-merged LSM runs. The keys' order is checked on a goroutine of
// its own while the index builds: a build has passes that run on one
// core.
func BuildTombed(b core.Builder, keys []core.Key, payloads []uint64, tombs []bool, fn search.Fn) (*Table, error) {
	sorted := make(chan bool, 1)
	go func() { sorted <- core.IsSorted(keys) }()
	idx, err := b.Build(keys)
	ok := <-sorted
	if err != nil {
		return nil, err
	}
	return wrap(keys, payloads, tombs, idx, fn, ok)
}

// emptyIndex is the index of an empty table: every bound is the empty
// run [0, 0).
type emptyIndex struct{}

func (emptyIndex) Lookup(core.Key) core.Bound { return core.Bound{} }
func (emptyIndex) SizeBytes() int             { return 0 }
func (emptyIndex) Name() string               { return "Empty" }

// Empty returns a zero-length table (e.g. the result of compacting a
// run whose every key was deleted). fn nil defaults to branchless
// binary search.
func Empty(fn search.Fn) *Table {
	t, _ := New(nil, nil, emptyIndex{}, fn) // nil slices satisfy every invariant
	return t
}

// Len reports the number of key/payload pairs.
func (t *Table) Len() int { return len(t.keys) }

// Keys returns the table's sorted key array as a view; callers must
// not mutate it. It is the base-run input to the serving layer's
// delta-merge compaction.
func (t *Table) Keys() []core.Key { return t.keys }

// Payloads returns the table's payload array as a view, parallel to
// Keys; callers must not mutate it.
func (t *Table) Payloads() []uint64 { return t.payloads }

// CountKey reports the number of occurrences of key (0 when absent;
// more than 1 only for duplicate-key tables).
func (t *Table) CountKey(key core.Key) int {
	pos := t.lowerBound(key)
	n := 0
	for pos+n < len(t.keys) && t.keys[pos+n] == key {
		n++
	}
	runtime.KeepAlive(t)
	return n
}

// Tombs returns the table's tombstone-bit array as a view (nil when
// the table carries none); callers must not mutate it.
func (t *Table) Tombs() []bool { return t.tombs }

// Index returns the underlying search-bound index.
func (t *Table) Index() core.Index { return t.idx }

// SizeBytes reports the index footprint (the size axis of the paper's
// tradeoff curves; the data arrays are the same for every index).
func (t *Table) SizeBytes() int { return t.idx.SizeBytes() }

// lowerBound resolves the exact lower-bound position of key through
// the index and last-mile search.
func (t *Table) lowerBound(key core.Key) int {
	pos := t.fn(t.keys, key, t.idx.Lookup(key))
	runtime.KeepAlive(t)
	return pos
}

// Get returns the payload stored for key, or false when absent. For
// duplicate keys it returns the first occurrence's payload.
func (t *Table) Get(key core.Key) (uint64, bool) {
	pos, found := t.find(key)
	var v uint64
	if found {
		v = t.payloads[pos]
	}
	runtime.KeepAlive(t)
	return v, found
}

// find resolves key to its lower-bound position through the index and
// last-mile search; found reports whether the pair at pos actually
// carries key. Unlike Get it exposes the position, which is what the
// LSM run-set read path needs to consult the tombstone bit.
func (t *Table) find(key core.Key) (pos int, found bool) {
	pos = t.lowerBound(key)
	found = pos < len(t.keys) && t.keys[pos] == key
	runtime.KeepAlive(t)
	return pos, found
}

// Scan visits the pairs with key in [lo, hi) in order, stopping early
// when visit returns false. It returns the number of pairs visited.
func (t *Table) Scan(lo, hi core.Key, visit func(core.Key, uint64) bool) int {
	keys, payloads, _ := t.RangeTombed(lo, hi)
	n := len(keys)
	for i := range keys {
		if !visit(keys[i], payloads[i]) {
			n = i + 1
			break
		}
	}
	runtime.KeepAlive(t)
	return n
}

// batchBlock is the GetBatch processing granularity: large enough to
// amortize the per-block passes, small enough that the block's bounds
// and keys stay resident in L1 between passes.
const batchBlock = 256

// pipelineMinKeys gates the pipelined probe rounds: below ~2 MB of
// keys the data array is cache-resident, every probe hits anyway, and
// the extra bound-array passes only cost; above it the overlapped
// misses win.
const pipelineMinKeys = 1 << 18

// GetBatch looks up a batch of keys: out[i] receives the payload for
// keys[i], or 0 when absent, and the number of keys found is returned.
// len(out) must be at least len(keys). It is the one-run case of
// GetBatchRuns, which documents the block pipeline.
func (t *Table) GetBatch(keys []core.Key, out []uint64) int {
	hits, _ := GetBatchRuns([]*Table{t}, keys, out, nil)
	return hits
}
