package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/persist"
)

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

// SetReadOnly flips the store's replica gate: while set, Put and
// Delete are refused (counted in sosd_store_readonly_drops_total) and
// Apply remains the only write path. Reads are unaffected.
func (st *Store) SetReadOnly(v bool) { st.readOnly.Store(v) }

// ReadOnly reports whether the store currently refuses direct writes.
func (st *Store) ReadOnly() bool { return st.readOnly.Load() }
