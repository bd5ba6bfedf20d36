package table

// The batched read path, for one run or many. A shard of the serving
// layer holds an ordered set of sorted runs (oldest first; newer runs
// shadow older ones, and a tombstone in a newer run hides every older
// occurrence of its key); a lone Table is the one-run case. findBlock
// is the only kernel: it resolves position and presence for a block of
// keys in one run. GetBatchRuns composes it across the run set, block
// by block: the newest run is probed with the caller's block in place,
// each older run only with the keys still unresolved, so the pipelined
// probe rounds are reused per run and the total probe count (the
// read-amplification numerator) falls as keys resolve early.

import (
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/search"
)

// runScratch is the working set of one block: the kernel's bounds and
// results, the still-unresolved keys gathered for the next older run
// with their positions in the block, and a found-bit sink for callers
// that pass none. It is pooled because the bounds pass through the
// core.LookupBatch interface call and would otherwise escape to the
// heap on every batch. Everything is block-sized, so a pooled scratch
// never grows with the batch.
type runScratch struct {
	bounds [batchBlock]core.Bound
	pos    [batchBlock]int32
	hit    [batchBlock]bool
	keys   [batchBlock]core.Key
	ids    [batchBlock]int32
	sink   [batchBlock]bool
}

var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// findBlock resolves one block of at most batchBlock keys: pos[i]
// receives the lower-bound position of chunk[i] (in [0, Len]) and
// hit[i] whether the pair there carries it. bs is scratch for the
// bounds.
func (t *Table) findBlock(chunk []core.Key, pos []int32, hit []bool, bs []core.Bound) {
	// Pass 1: bound prediction.
	core.LookupBatch(t.idx, chunk, bs)

	keys := t.keys
	n := len(keys)
	if n == 0 {
		for i := range chunk {
			pos[i], hit[i] = 0, false
		}
		return
	}

	// Pass 2: pipelined probe rounds through the batched search layer.
	// Every active bound takes one branchless probe per round; the
	// probes of a round are independent, so their data-array loads
	// overlap instead of chaining like the per-key path's log2(width)
	// dependent misses.
	if n >= pipelineMinKeys {
		search.NarrowBatch(keys, chunk, bs)
	}

	// Pass 3: scalar last mile on the narrowed bounds, reusing the
	// previous position as a floor whenever the block is locally
	// ascending (LB is monotone in the key, so a later-or-equal key
	// can never land before an earlier key's resolved position). The
	// floor seed (prevKey=0, prevPos=0) makes the first iteration a
	// no-op without a havePrev flag.
	prevPos := 0
	var prevKey core.Key
	bs = bs[:len(chunk)]
	pos = pos[:len(chunk)]
	hit = hit[:len(chunk)]
	for i, x := range chunk {
		b := bs[i]
		if x >= prevKey && prevPos > b.Lo {
			b.Lo = prevPos
			if b.Lo > b.Hi {
				b.Lo = b.Hi
			}
		}
		p := t.fn(keys, x, b)
		prevPos, prevKey = p, x
		pos[i] = int32(p)
		hit[i] = p < n && keys[p] == x
	}
	runtime.KeepAlive(t)
}

// GetBatchRuns serves a merged batched lookup across an ordered run
// set: runs[0] is the oldest (base) run, runs[len-1] the newest; a key
// resolves at its newest occurrence, and a tombstone occurrence
// resolves the key as absent, shadowing every older run. out[i]
// receives the live payload of keys[i] (0 when absent) and found[i]
// its presence bit; out must be at least len(keys) long, and so must
// found unless it is nil (the caller wants payloads and the count
// only). It returns the number of present keys and the total number of
// per-run probes issued — the numerator of the measured read
// amplification (probes/keys == 1 when every key resolves in the
// newest run).
func GetBatchRuns(runs []*Table, keys []core.Key, out []uint64, found []bool) (hits, probes int) {
	n := len(keys)
	if len(out) < n || (found != nil && len(found) < n) {
		panic("table: GetBatchRuns output shorter than key batch")
	}
	s := runScratchPool.Get().(*runScratch)
	for off := 0; off < n; off += batchBlock {
		end := min(off+batchBlock, n)
		fb := s.sink[:end-off]
		if found != nil {
			fb = found[off:end]
		}
		h, p := s.probeBlock(runs, keys[off:end], out[off:end], fb)
		hits += h
		probes += p
	}
	runScratchPool.Put(s)
	return hits, probes
}

// probeBlock serves one block of at most batchBlock keys across the
// run set, newest run first. The resolve loop after each run's kernel
// call is branch-free in the data (clamp, mask, unconditional store,
// conditional advance): hit/miss mixes are exactly what a predictor
// cannot learn. Every unresolved key is written on every pass, so the
// first run probed initializes out and found.
func (s *runScratch) probeBlock(runs []*Table, keys []core.Key, out []uint64, found []bool) (hits, probes int) {
	sub := keys     // the newest run is probed with the caller's block in place
	var ids []int32 // block positions of sub; nil = the identity
	for r := len(runs) - 1; r >= 0 && len(sub) > 0; r-- {
		t := runs[r]
		n := len(t.keys)
		if n == 0 {
			continue
		}
		m := len(sub)
		probes += m
		pos, hit := s.pos[:m], s.hit[:m]
		t.findBlock(sub, pos, hit, s.bounds[:m])

		payloads := t.payloads[:n] // len(payloads)==len(keys): lets BCE drop the gather checks
		tombs := t.tombs           // a local: the stores to found could alias the field
		k := 0
		for j, x := range sub {
			id := j
			if ids != nil {
				id = int(ids[j])
			}
			at := uint(pos[j])
			if at >= uint(n) {
				at = uint(n) - 1 // conditional move; pos==n loads a dummy slot
			}
			h := 0
			if hit[j] {
				h = 1
			}
			live := h
			if tombs != nil && tombs[at] {
				live = 0 // newest occurrence is a tombstone: resolved, absent
			}
			out[id] = payloads[at] * uint64(live)
			found[id] = live != 0
			hits += live
			if r > 0 {
				// Gather the misses for the older runs. sub and ids may
				// alias s.keys and s.ids; k never passes j, so compacting
				// in place is safe.
				s.keys[k], s.ids[k] = x, int32(id)
				k += 1 - h
			}
		}
		runtime.KeepAlive(t)
		sub, ids = s.keys[:k], s.ids[:k]
	}
	if probes == 0 { // no non-empty run: nothing above wrote the outputs
		clear(out)
		clear(found)
	}
	return hits, probes
}

// RangeTombed returns the keys, payloads, and tombstone bits with key
// in [lo, hi), as views into the table's arrays (zero-copy; callers
// must not mutate them). tombs is nil when the table carries none.
func (t *Table) RangeTombed(lo, hi core.Key) ([]core.Key, []uint64, []bool) {
	start := t.lowerBound(lo)
	if hi < lo {
		hi = lo
	}
	end := t.lowerBound(hi)
	var tombs []bool
	if t.tombs != nil {
		tombs = t.tombs[start:end]
	}
	return t.keys[start:end], t.payloads[start:end], tombs
}

// GetRuns serves a merged point read across an ordered run set (same
// precedence as GetBatchRuns), returning the live payload, whether the
// key is present, and the number of runs probed.
func GetRuns(runs []*Table, key core.Key) (val uint64, ok bool, probes int) {
	for r := len(runs) - 1; r >= 0; r-- {
		t := runs[r]
		if t.Len() == 0 {
			continue
		}
		probes++
		pos, hit := t.find(key)
		if !hit {
			continue
		}
		if t.tombs != nil && t.tombs[pos] {
			return 0, false, probes
		}
		val = t.payloads[pos]
		runtime.KeepAlive(t)
		return val, true, probes
	}
	return 0, false, probes
}
