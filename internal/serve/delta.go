package serve

// The write path of the mutable Store: each shard carries a sorted,
// immutable delta buffer of pending writes (upserts and tombstones) on
// top of an ordered set of immutable sorted runs — the base run plus
// the tier runs flushed from earlier deltas (LSM tiering). Writers
// publish a new delta by copy-on-write under the shard's single-writer
// lock; readers always load one consistent (runs, delta, frozen-delta)
// snapshot through the shard's atomic pointer and merge on the fly —
// one read path for every shape: probe the run set (1..N runs), then
// overlay the deltas. When a delta grows past the compaction threshold
// it is frozen and merged, with the newest runs the tiering policy
// names, into one run that replaces them, republished in one pointer
// swap. See DESIGN.md "Write path".

import (
	"cmp"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/table"
)

// delta is an immutable sorted run of pending writes for one shard:
// keys ascending and unique, vals the upserted payloads, tombs marking
// deletions. A delta is never mutated after publication; writers derive
// a new delta with `apply` and swap the shard state pointer.
type delta struct {
	keys  []core.Key
	vals  []uint64
	tombs []bool
}

// emptyDelta is the shared zero-length delta; shard states never hold
// a nil active delta, so readers skip nil checks on the hot path.
var emptyDelta = &delta{}

// len reports the number of pending entries (tombstones included).
func (d *delta) len() int { return len(d.keys) }

// get returns the pending write for key: ok reports whether the delta
// holds an entry for key, tomb whether that entry is a deletion.
func (d *delta) get(x core.Key) (val uint64, tomb, ok bool) {
	pos := core.LowerBound(d.keys, x)
	if pos < len(d.keys) && d.keys[pos] == x {
		return d.vals[pos], d.tombs[pos], true
	}
	return 0, false, false
}

// apply returns d with ops folded in, in op order: the last write to a
// key wins, within the batch and over what d held. It is the one way a
// delta comes to hold a write — live Puts and Deletes, replicated
// batches and WAL replay alike. A batch of one takes `with`'s two
// memmoves; a larger one is sorted once and overlaid, linear in
// len(d)+len(ops) where op-at-a-time copy-on-write would be quadratic.
func (d *delta) apply(ops []persist.Op) *delta {
	switch len(ops) {
	case 0:
		return d
	case 1:
		return d.with(ops[0].Key, ops[0].Val, ops[0].Tomb)
	}
	sorted := slices.Clone(ops)
	slices.SortStableFunc(sorted, func(a, b persist.Op) int { return cmp.Compare(a.Key, b.Key) })
	top := &delta{
		keys:  make([]core.Key, 0, len(sorted)),
		vals:  make([]uint64, 0, len(sorted)),
		tombs: make([]bool, 0, len(sorted)),
	}
	for j, op := range sorted {
		if j+1 < len(sorted) && sorted[j+1].Key == op.Key {
			continue // the sort is stable: a later write to the key follows
		}
		top.keys = append(top.keys, op.Key)
		top.vals = append(top.vals, op.Val)
		top.tombs = append(top.tombs, op.Tomb)
	}
	return d.overlay(top)
}

// with returns a new delta with the write applied: an existing entry
// for key is replaced, otherwise the entry is inserted at its sorted
// position. The receiver is not modified (copy-on-write), so readers
// holding the old delta are unaffected. Cost is O(len), which the
// compaction threshold keeps bounded.
func (d *delta) with(key core.Key, val uint64, tomb bool) *delta {
	pos := core.LowerBound(d.keys, key)
	if pos < len(d.keys) && d.keys[pos] == key {
		nd := &delta{
			keys:  d.keys, // keys unchanged: share
			vals:  make([]uint64, len(d.vals)),
			tombs: make([]bool, len(d.tombs)),
		}
		copy(nd.vals, d.vals)
		copy(nd.tombs, d.tombs)
		nd.vals[pos] = val
		nd.tombs[pos] = tomb
		return nd
	}
	n := len(d.keys)
	nd := &delta{
		keys:  make([]core.Key, n+1),
		vals:  make([]uint64, n+1),
		tombs: make([]bool, n+1),
	}
	copy(nd.keys, d.keys[:pos])
	copy(nd.vals, d.vals[:pos])
	copy(nd.tombs, d.tombs[:pos])
	nd.keys[pos], nd.vals[pos], nd.tombs[pos] = key, val, tomb
	copy(nd.keys[pos+1:], d.keys[pos:])
	copy(nd.vals[pos+1:], d.vals[pos:])
	copy(nd.tombs[pos+1:], d.tombs[pos:])
	return nd
}

// window returns the half-open sub-run of d with keys in [lo, hi).
func (d *delta) window(lo, hi core.Key) (keys []core.Key, vals []uint64, tombs []bool) {
	start := core.LowerBound(d.keys, lo)
	end := core.LowerBound(d.keys, hi)
	return d.keys[start:end], d.vals[start:end], d.tombs[start:end]
}

// overlay merges d under top: entries of top win on equal keys. A batch
// lands on the active delta this way, and a frozen delta goes back
// under the active one (pendingDelta).
func (d *delta) overlay(top *delta) *delta {
	if top.len() == 0 {
		return d
	}
	if d.len() == 0 {
		return top
	}
	nd := &delta{
		keys:  make([]core.Key, 0, d.len()+top.len()),
		vals:  make([]uint64, 0, d.len()+top.len()),
		tombs: make([]bool, 0, d.len()+top.len()),
	}
	i, j := 0, 0
	for i < d.len() || j < top.len() {
		if j >= top.len() || (i < d.len() && d.keys[i] < top.keys[j]) {
			nd.keys = append(nd.keys, d.keys[i])
			nd.vals = append(nd.vals, d.vals[i])
			nd.tombs = append(nd.tombs, d.tombs[i])
			i++
			continue
		}
		if i < d.len() && d.keys[i] == top.keys[j] {
			i++
		}
		nd.keys = append(nd.keys, top.keys[j])
		nd.vals = append(nd.vals, top.vals[j])
		nd.tombs = append(nd.tombs, top.tombs[j])
		j++
	}
	return nd
}

// sizeBytes reports the delta's memory footprint.
func (d *delta) sizeBytes() int { return d.len() * 17 } // 8B key + 8B val + 1B tomb

// mergeLayer is one sorted input of a K-way shard merge: a run's (or
// delta's) key/payload arrays plus optional parallel tombstone bits.
// Only the oldest layer (the shard's base run) may contain duplicate
// keys; every other layer is unique-keyed.
type mergeLayer struct {
	keys  []core.Key
	vals  []uint64
	tombs []bool       // nil = no tombstones
	run   *table.Table // a run's, kept reachable while its arrays are read
}

func runLayer(t *table.Table) mergeLayer {
	return mergeLayer{keys: t.Keys(), vals: t.Payloads(), tombs: t.Tombs(), run: t}
}

func deltaLayer(d *delta) mergeLayer {
	return mergeLayer{keys: d.keys, vals: d.vals, tombs: d.tombs}
}

// mergeVisit walks the merged view of layers (ordered oldest first;
// the newest layer holding a key wins) in ascending key order, calling
// visit once per surviving pair. When the oldest layer wins, each of
// its duplicate occurrences is visited individually — matching the
// shape of a base run, where duplicates are original data. Tombstoned
// winners are visited with tomb=true (never skipped here: a minor
// merge must carry tombstones forward, and counting callers must see
// them). Returns false when visit stopped the walk early.
func mergeVisit(layers []mergeLayer, visit func(k core.Key, v uint64, tomb bool) bool) bool {
	idx := make([]int, len(layers))
	for {
		// Smallest key among the layer heads.
		var x core.Key
		have := false
		for l := range layers {
			if idx[l] >= len(layers[l].keys) {
				continue
			}
			if k := layers[l].keys[idx[l]]; !have || k < x {
				x, have = k, true
			}
		}
		if !have {
			return true
		}
		// Newest layer holding x wins; everyone consumes x.
		winner := -1
		for l := range layers {
			if idx[l] < len(layers[l].keys) && layers[l].keys[idx[l]] == x {
				winner = l
			}
		}
		for l := range layers {
			ly := &layers[l]
			n := 0
			for idx[l]+n < len(ly.keys) && ly.keys[idx[l]+n] == x {
				n++
			}
			if l == winner {
				emit := 1
				if l == 0 {
					emit = n // base duplicates are original data: emit each
				}
				for e := 0; e < emit; e++ {
					p := idx[l] + e
					tomb := ly.tombs != nil && ly.tombs[p]
					if !visit(x, ly.vals[p], tomb) {
						return false
					}
				}
			}
			idx[l] += n
			runtime.KeepAlive(ly.run) // its arrays may be its mapped file's
		}
	}
}

// mergeLayers materializes the merged view of layers into fresh arrays
// (one layer kept with its tombstones is its own merged view and is
// returned as is). With dropTombs (a major merge into the base run) tombstoned
// keys are omitted and the returned tombs is nil; without it (a minor
// merge of upper tiers, which must keep shadowing the base) the
// winners' tombstone bits are carried through, with an all-false array
// normalized to nil.
func mergeLayers(layers []mergeLayer, dropTombs bool) ([]core.Key, []uint64, []bool) {
	if len(layers) == 1 && !dropTombs {
		// A flush: the frozen delta is immutable and unique-keyed, so the
		// tier run shares its arrays instead of copying them.
		return layers[0].keys, layers[0].vals, layers[0].tombs
	}
	n := 0
	for _, l := range layers {
		n += len(l.keys)
	}
	outK := make([]core.Key, 0, n)
	outV := make([]uint64, 0, n)
	var outT []bool
	if !dropTombs {
		outT = make([]bool, 0, n)
	}
	any := false
	mergeVisit(layers, func(k core.Key, v uint64, tomb bool) bool {
		if tomb && dropTombs {
			return true
		}
		outK = append(outK, k)
		outV = append(outV, v)
		if !dropTombs {
			outT = append(outT, tomb)
			any = any || tomb
		}
		return true
	})
	if !any {
		outT = nil
	}
	return outK, outV, outT
}

// shardState is the atomically published read view of one shard: the
// ordered run set (oldest first; runs[0] is the base run and the only
// one allowed duplicate keys, newer runs shadow older ones and may
// carry tombstones), the active delta absorbing writes, and (while a
// compaction is in flight) the frozen delta being flushed or merged.
// Every transition — write, freeze, flush, merge — installs a fresh
// shardState under the shard's write lock, so a reader's single
// atomic load always observes a mutually consistent view. runIDs names
// each run's index catalog entry (the manifest codec tag), parallel to
// runs.
type shardState struct {
	runs   []*table.Table
	runIDs []string
	del    *delta // active delta; emptyDelta when clean, never nil
	frozen *delta // delta being compacted; nil when no merge in flight
}

// base returns the shard's base run.
func (s *shardState) base() *table.Table { return s.runs[0] }

// single reports whether the shard is fully compacted: exactly the base
// run. It is a policy predicate, not a read-path switch — reads serve
// 1..N runs through the same code, and a single-run shard (which has
// read amplification 1 by construction) merely pays no read-amp
// accounting and needs no merge.
func (s *shardState) single() bool { return len(s.runs) == 1 }

// pending returns the newest pending write for key, consulting the
// active delta first (newer writes shadow frozen ones).
func (s *shardState) pending(x core.Key) (val uint64, tomb, ok bool) {
	if v, tb, hit := s.del.get(x); hit {
		return v, tb, true
	}
	if s.frozen != nil {
		if v, tb, hit := s.frozen.get(x); hit {
			return v, tb, true
		}
	}
	return 0, false, false
}

// pendingDelta returns every pending write of the shard as one delta:
// the frozen delta under the active one, whose newer writes win.
func (s *shardState) pendingDelta() *delta {
	if s.frozen == nil {
		return s.del
	}
	return s.frozen.overlay(s.del)
}

// deltaLen reports the shard's pending entries across both buffers.
func (s *shardState) deltaLen() int {
	n := s.del.len()
	if s.frozen != nil {
		n += s.frozen.len()
	}
	return n
}

// get serves a merged point read: pending writes shadow the runs,
// newer runs shadow older. probes reports the number of runs probed (0
// when a pending write answered) — the numerator of the shard's
// measured read amplification.
func (s *shardState) get(x core.Key) (val uint64, found bool, probes int) {
	if v, tomb, ok := s.pending(x); ok {
		if tomb {
			return 0, false, 0
		}
		return v, true, 0
	}
	return table.GetRuns(s.runs, x)
}

// getBatch serves a merged batched read: out[i] receives the live
// payload of keys[i] (0 when absent) and found[i] its presence bit,
// both resolved against this one shard snapshot; n is the number
// present. The run set is probed newest-first through
// table.GetBatchRuns, whose found bits then drive the overlay of the
// (small, bounded) deltas: a pending write replaces whatever the runs
// said about its key. probes reports the run probes issued.
func (s *shardState) getBatch(keys []core.Key, out []uint64, found []bool) (n, probes int) {
	n, probes = table.GetBatchRuns(s.runs, keys, out, found)
	if s.del.len() == 0 && s.frozen == nil {
		return n, probes
	}
	for i, x := range keys {
		v, tomb, ok := s.pending(x)
		if !ok {
			continue
		}
		if found[i] {
			n--
		}
		if tomb {
			out[i], found[i] = 0, false
		} else {
			out[i], found[i] = v, true
			n++
		}
	}
	return n, probes
}

// scanLayers assembles the shard's merge layers for [lo, hi), ordered
// oldest first: base run, newer runs, frozen delta, active delta.
func (s *shardState) scanLayers(lo, hi core.Key) []mergeLayer {
	layers := make([]mergeLayer, 0, len(s.runs)+2)
	for _, t := range s.runs {
		k, v, tb := t.RangeTombed(lo, hi)
		layers = append(layers, mergeLayer{keys: k, vals: v, tombs: tb, run: t})
	}
	if s.frozen != nil {
		k, v, tb := s.frozen.window(lo, hi)
		layers = append(layers, mergeLayer{keys: k, vals: v, tombs: tb})
	}
	k, v, tb := s.del.window(lo, hi)
	layers = append(layers, mergeLayer{keys: k, vals: v, tombs: tb})
	return layers
}

// scan visits the shard's live pairs with key in [lo, hi) in ascending
// order: a K-way merge of active delta, frozen delta, and the run set
// with newest-wins precedence, tombstones dropping their key, and
// duplicate base keys collapsed to their first occurrence. Returns
// false when visit stopped the scan.
func (s *shardState) scan(lo, hi core.Key, visit func(core.Key, uint64) bool) bool {
	var lastKey core.Key
	haveLast := false
	return mergeVisit(s.scanLayers(lo, hi), func(k core.Key, v uint64, tomb bool) bool {
		if tomb {
			return true
		}
		if haveLast && k == lastKey {
			return true // duplicate base occurrence: first one was visited
		}
		lastKey, haveLast = k, true
		return visit(k, v)
	})
}

// liveLen reports the shard's live pair count: the base run's length
// adjusted by the effect of each key the layers above it hold (tier
// runs, frozen delta, active delta; newest wins) — a tombstone removes
// every base occurrence of its key, an upsert collapses a duplicate run
// to one pair or adds a new key. One base probe per upper-layer key.
func (s *shardState) liveLen() int {
	layers := make([]mergeLayer, 0, len(s.runs)+1)
	for _, t := range s.runs[1:] {
		layers = append(layers, runLayer(t))
	}
	if s.frozen != nil {
		layers = append(layers, deltaLayer(s.frozen))
	}
	layers = append(layers, deltaLayer(s.del))
	n := s.base().Len()
	mergeVisit(layers, func(k core.Key, _ uint64, tomb bool) bool {
		c := s.base().CountKey(k)
		switch {
		case tomb:
			n -= c
		case c == 0:
			n++
		default:
			n -= c - 1
		}
		return true
	})
	return n
}
