package serve

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/search"
	"repro/internal/table"
)

// overThreshold reports whether s's active delta is due for the
// background compactor: compaction on, the threshold reached, and no
// round in flight on the shard (the compactor asks again when that one
// publishes).
func (st *Store) overThreshold(s *shardState) bool {
	return st.cfg.CompactThreshold > 0 && s.frozen == nil && s.del.len() >= st.cfg.CompactThreshold
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
	mergeDue := len(s.runs) > maxRuns || (len(s.runs) > 1 && st.overAmp(st.windowAmp(i)))
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
// over run set rs and the frozen delta, under run bound maxRuns, on the
// shard's read window as the round begins. Tiered (maxRuns > 1), a
// non-empty frozen delta is flushed into a run of its own, and only when
// that leaves the shard over the bound — in run count or in measured
// read amplification — does one consolidation follow, from the run
// chooseMajor picks: minor keeps the base and its tuned index, major
// rewrites the shard. Untiered, the one step is the major, frozen delta
// included.
func (st *Store) buildCompacted(i int, rs runSet, frozen *delta, maxRuns int) (runSet, error) {
	var p mergePrice
	p.amp, p.ops = st.windowAmp(i)
	from := 0
	if maxRuns > 1 {
		if frozen.len() > 0 {
			var err error
			if rs, err = st.mergeTop(i, rs, len(rs.runs), frozen, p); err != nil {
				return rs, err
			}
			frozen = emptyDelta
		}
		if len(rs.runs) <= maxRuns && !st.overAmp(p.amp, p.ops) {
			return rs, nil
		}
		p.extra, p.perRead = chooseMajor(rs.runIDs[0], rs.runs)
		if p.extra > p.ops*p.perRead {
			from = 1
		}
	}
	return st.mergeTop(i, rs, from, frozen, p)
}

// mergePrice is what a round chose its steps on, as the journal records
// it: the read window as the round began (amp over ops reads) and, for
// a triggered consolidation, chooseMajor's prices (zero elsewhere).
type mergePrice struct {
	amp                 float64
	ops, extra, perRead int64
}

// mergeTop is the one compaction step: merge rs.runs[from:] and the
// frozen delta into a single run that replaces them. Where from points
// is all that tells the three kinds apart. from == len(runs) merges the
// delta alone — a flush, which stacks a tier run. from == 0 takes every
// run — a major: nothing older is left to shadow, so tombstones drop,
// and the result is the new base run under the index baseBuilder picks
// (for learned families, re-tuned). Anything between is a minor:
// tombstones are carried, since they still shadow the runs below, and
// the result gets the family's cheap tier index like a flush.
func (st *Store) mergeTop(i int, rs runSet, from int, frozen *delta, p mergePrice) (runSet, error) {
	kind, count := "minor", &st.minorMerges
	switch from {
	case 0:
		kind, count = "major", &st.majorMerges
	case len(rs.runs):
		kind, count = "flush", &st.flushes
	}
	layers := make([]mergeLayer, 0, len(rs.runs)-from+1)
	for _, t := range rs.runs[from:] {
		layers = append(layers, runLayer(t))
	}
	layers = append(layers, deltaLayer(frozen))
	t0 := time.Now()
	keys, vals, tombs := mergeLayers(layers, from == 0)
	// The new run's builder is a function of the shard's tag and the
	// merged keys, resolved here and never at Open, so warm loads pay no
	// training cost up front and a warm-opened shard rebuilds exactly as
	// one that never restarted.
	nt, id, err := st.buildRun(i, from, rs.runIDs[0], keys, vals, tombs)
	if err != nil {
		return rs, err
	}
	count.Add(1)
	st.cfg.Journal.Append(obs.Event{Shard: i, Kind: kind, RunsBefore: len(rs.runs), RunsAfter: from + 1,
		Keys: len(keys), Dur: time.Since(t0), ReadAmp: p.amp, WindowOps: p.ops, ExtraWork: p.extra, ProbeWork: p.perRead})
	// Three-index slices: the appends copy, never write into the arrays
	// the published shard state still holds.
	return runSet{runs: append(rs.runs[:from:from], nt), runIDs: append(rs.runIDs[:from:from], id)}, nil
}

// chooseMajor prices a triggered consolidation of runs in key visits,
// from the base run's tag and the run lengths alone: extra is what a
// major (rewrite the shard; learned families re-tune) costs beyond a
// minor (fold the upper runs into one tier run), both priced by
// registry.BuildWork; perRead is what the major saves each read, the
// probe of that tier run — search.Probes of its length, what binary
// search compares and about what a coarse tier PGM does. The major is
// free of extra when a minor would be a no-op (one upper run) or the
// upper runs rival the base.
func chooseMajor(tag string, runs []*table.Table) (extra, perRead int64) {
	if len(runs) <= 2 {
		return 0, 0
	}
	total, upper := 0, 0
	for r, t := range runs {
		total += t.Len()
		if r > 0 {
			upper += t.Len()
		}
	}
	if total == 0 || 2*upper >= total {
		return 0, 0
	}
	family, _ := registry.ParseID(tag)
	return registry.BuildWork(family, total, true) - registry.BuildWork(family, upper, false), int64(search.Probes(upper))
}

// buildRun is the one place a run's table is built: keys indexed as run
// r of shard i, whose tag (its base run's) is tag, returned with the tag
// to record for the new run. The base run (r == 0) gets the builder
// baseBuilder picks; a tier run — a flushed delta or a minor merge —
// the cheap tier entry of the shard's family, binary search or a coarse
// learned bound, never the full per-base tuning. A base run left with
// no keys keeps the shard's tag, and with it the family.
func (st *Store) buildRun(i, r int, tag string, keys []core.Key, vals []uint64, tombs []bool) (*table.Table, string, error) {
	var b core.Builder
	if r > 0 {
		family, _ := registry.ParseID(tag)
		nb, id := registry.Tier(family, keys)
		b, tag = nb.Builder, id
	}
	if len(keys) == 0 {
		return table.Empty(search.BinarySearch), tag, nil
	}
	if r == 0 {
		var err error
		if b, tag, err = st.baseBuilder(i, tag, keys); err != nil {
			return nil, "", err
		}
	}
	t, err := table.BuildTombed(b, keys, vals, tombs, search.BinarySearch)
	return t, tag, err
}

// baseBuilder is the one place a base run's index is chosen: the builder
// for shard i's base run over keys, and the codec tag to record for it.
// tag is the tag of the base run being replaced, or the store's family
// for a shard not built yet. A caller-supplied Config.BuilderFor decides
// every base build (it may be the only way to build a family the
// catalog does not know); a custom builder has no catalog label, and
// its family name alone is still a usable tag. Otherwise the catalog's
// rule applies: registry.Rebuild.
func (st *Store) baseBuilder(i int, tag string, keys []core.Key) (core.Builder, string, error) {
	if st.cfg.builderFor != nil {
		b, err := st.cfg.builderFor(i, keys)
		if err != nil {
			return nil, "", err
		}
		return b, b.Name(), nil
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
