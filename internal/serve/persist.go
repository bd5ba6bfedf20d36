package serve

// Snapshot/Open: the durability face of the Store, composed from the
// artifacts of internal/persist. A snapshot directory holds, per
// shard, one run file per sorted run — block-aligned keys and
// payloads, the tombstone bits of a tier run that carries deletions,
// and the encoded index when the run's codec tag has one — plus a
// write-ahead log seeded with the shard's pending delta; the manifest
// names them all and its rename is the commit point. Shard files are
// written under generation-suffixed names and the manifest commits a
// complete generation at once, so a crash at any instant leaves either
// the full old file set or the full new one — never a mixed pair.
//
// A store opened from a snapshot is "attached": every Put/Delete
// appends to its shard's WAL before becoming visible, and every
// compaction commits the new run set and truncates the WAL to the
// writes still pending — the commit (manifest rename) happens
// under the shard's write lock, so no write can slip between the WAL
// seed it captures and the moment it takes effect. At any instant,
// replaying a shard's committed WAL over its committed runs reproduces
// the shard's live state. Runs are immutable, so a commit rewrites
// only the runs that changed since the last one: a flush adds one
// small run file, a minor merge replaces the upper tiers, and only a
// major merge rewrites the base. See DESIGN.md "Persistence".

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/search"
	"repro/internal/table"
)

func runFileName(i int, gen uint64, r int) string {
	return fmt.Sprintf("shard-%04d-g%06d-r%02d.run", i, gen, r)
}
func walFileName(i int, gen uint64) string { return fmt.Sprintf("shard-%04d-g%06d.wal", i, gen) }

// notePersistErr records the store's first background failure (WAL
// append, compaction rebuild, compaction commit); PersistErr surfaces
// it.
func (st *Store) notePersistErr(err error) {
	st.persistErrMu.Lock()
	if st.persistErr == nil {
		st.persistErr = err
	}
	st.persistErrMu.Unlock()
}

// PersistErr reports the first failure the store has swallowed on a
// background path: a WAL append or compaction commit, after which the
// in-memory state is fine but durability is degraded (the next Snapshot
// to a healthy location should be treated as urgent), or a background
// compaction's rebuild, after which every write is still served but
// from a delta that was folded back instead of merged.
func (st *Store) PersistErr() error {
	st.persistErrMu.Lock()
	defer st.persistErrMu.Unlock()
	return st.persistErr
}

// SyncWAL fsyncs every attached write-ahead log: an explicit storage
// barrier for stores running without SyncWrites. Safe alongside
// concurrent writes and compactions.
func (st *Store) SyncWAL() error {
	for i := range st.writeMu { // a volatile store's slots are all nil
		st.writeMu[i].Lock()
		w := st.wals[i]
		var err error
		if w != nil {
			err = w.Sync()
		}
		st.writeMu[i].Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// pendingOps flattens a shard state's pending writes (frozen delta
// under active, newest wins) into WAL seed records. An in-flight
// frozen delta rides in the WAL rather than as a run: it has not been
// committed as a run yet, and replaying it over the committed run set
// reproduces the same merged view.
func pendingOps(s *shardState) []persist.Op {
	d := s.pendingDelta()
	if d.len() == 0 {
		return nil
	}
	ops := make([]persist.Op, d.len())
	for i := range ops {
		ops[i] = persist.Op{Key: d.keys[i], Val: d.vals[i], Tomb: d.tombs[i]}
	}
	return ops
}

// writeShardRun writes one immutable run of shard i into dir at
// generation gen as one run file: keys, payloads, tombstones when it
// carries deletions, and the encoded index when the family has a codec
// (otherwise Open rebuilds it from the keys).
func (st *Store) writeShardRun(dir string, i int, gen uint64, r int, tab *table.Table, codec string) (persist.RunMeta, error) {
	rm := persist.RunMeta{Codec: codec, File: runFileName(i, gen, r)}
	defer runtime.KeepAlive(tab) // the arrays may be its mapped file's
	run := persist.Run{Keys: tab.Keys(), Payloads: tab.Payloads(), Tombs: tab.Tombs(), Index: tab.Index()}
	if err := persist.WriteRun(filepath.Join(dir, rm.File), run); err != nil {
		return persist.RunMeta{}, err
	}
	return rm, nil
}

// writeRuns writes the run file of each of s's runs into dir at
// generation gen, except the runs committed holds already: those keep
// the files an earlier generation wrote.
func (st *Store) writeRuns(dir string, i int, gen uint64, s *shardState, committed map[*table.Table]persist.RunMeta) ([]persist.RunMeta, error) {
	runs := make([]persist.RunMeta, len(s.runs))
	for r, t := range s.runs {
		rm, ok := committed[t]
		if !ok {
			var err error
			if rm, err = st.writeShardRun(dir, i, gen, r, t, s.runIDs[r]); err != nil {
				return nil, err
			}
		}
		runs[r] = rm
	}
	return runs, nil
}

// cleanStaleShardFiles removes generation files the committed manifest
// no longer references. Best-effort: leftovers waste space, never
// correctness.
func cleanStaleShardFiles(dir string, m *persist.Manifest) {
	keep := map[string]bool{}
	for _, s := range m.Shards {
		keep[s.WAL] = true
		for _, r := range s.Runs {
			keep[r.File] = true
		}
	}
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		return
	}
	for _, path := range matches {
		if !keep[filepath.Base(path)] {
			os.Remove(path)
		}
	}
}

// Snapshot atomically persists the store's full state into dir: every
// shard's run set (one run file per run) and a WAL seeded with the
// shard's pending writes, committed by the manifest rename. It runs alongside concurrent reads and writes —
// each shard is captured at one consistent (runs, pending) point — and
// leaves the store serving throughout. Snapshotting an attached store
// to its own directory commits shard by shard and swaps the live WALs,
// truncating each to the pending writes just captured.
func (st *Store) Snapshot(dir string) error {
	if abs, err := filepath.Abs(dir); err == nil && st.dir != "" && abs == st.dir {
		st.persistMu.Lock()
		defer st.persistMu.Unlock()
		for i := range st.shards {
			if err := st.persistShardLocked(i); err != nil {
				return err
			}
		}
		return nil
	}
	return st.SnapshotWith(dir, nil, nil)
}

// SnapshotWith is Snapshot restricted to a foreign directory, with two
// per-shard callbacks, either of which may be nil; both run on the
// export's worker goroutines. onShard(i) runs under shard i's write
// lock as the shard's state is captured, so the exported state holds
// precisely the writes the callback has seen: the replication primary
// records its stream position there. exported(meta) runs once a shard's
// files are durable in dir, before the manifest naming them exists, so
// the primary can ship them while later shards are written; an error
// from it fails the export as a failed shard does.
func (st *Store) SnapshotWith(dir string, onShard func(shard int), exported func(persist.ShardMeta) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	if st.dir != "" && abs == st.dir {
		return fmt.Errorf("serve: SnapshotWith targets the attached directory %s", dir)
	}
	return st.exportTo(abs, onShard, exported)
}

// exportTo writes a complete generation of the store's state into the
// foreign directory abs: shards are exported Workers at a time, each
// captured from one atomic state load under its own write lock, then
// the whole is committed with a single manifest rename. Exports
// serialize only against each other (exportMu), never against the
// attached directory's compaction commits — a long backup must not
// stall the compactor behind persistMu.
func (st *Store) exportTo(abs string, onShard func(shard int), exported func(persist.ShardMeta) error) error {
	st.exportMu.Lock()
	defer st.exportMu.Unlock()
	gen := uint64(1)
	if old, err := persist.ReadManifest(filepath.Join(abs, persist.ManifestName)); err == nil {
		gen = old.Gen + 1
	}
	m := &persist.Manifest{
		Family: st.cfg.Family,
		Gen:    gen,
		Shards: make([]persist.ShardMeta, len(st.shards)),
	}
	var wg sync.WaitGroup
	var failed atomic.Pointer[error] // the first error; no shard starts after it
	slots := make(chan struct{}, st.cfg.Workers)
	for i := range st.shards {
		slots <- struct{}{}
		if failed.Load() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer func() { <-slots; wg.Done() }()
			var err error
			if m.Shards[i], err = st.exportShard(abs, i, gen, onShard); err == nil && exported != nil {
				err = exported(m.Shards[i])
			}
			if err != nil {
				failed.CompareAndSwap(nil, &err)
			}
		}(i)
	}
	wg.Wait()
	if err := failed.Load(); err != nil {
		return *err
	}
	if err := persist.WriteManifest(filepath.Join(abs, persist.ManifestName), m); err != nil {
		return err
	}
	cleanStaleShardFiles(abs, m)
	return nil
}

// exportShard captures shard i and writes its run files and seeded WAL
// into abs at generation gen.
func (st *Store) exportShard(abs string, i int, gen uint64, onShard func(shard int)) (persist.ShardMeta, error) {
	st.writeMu[i].Lock()
	s := st.shards[i].Load()
	if onShard != nil {
		onShard(i)
	}
	st.writeMu[i].Unlock()
	runs, err := st.writeRuns(abs, i, gen, s, nil)
	if err != nil {
		return persist.ShardMeta{}, err
	}
	walName := walFileName(i, gen)
	w, err := persist.CreateWAL(filepath.Join(abs, walName), pendingOps(s))
	if err != nil {
		return persist.ShardMeta{}, err
	}
	return persist.ShardMeta{Sep: st.seps[i], Codec: s.runIDs[0], WAL: walName, Runs: runs}, w.Close()
}

// persistShard commits shard i's current state to the attached
// directory at a fresh generation: run files for any runs not already
// committed, a WAL seeded with the still-pending writes, and the
// manifest naming them. It is the incremental, single-shard form of
// Snapshot, run after every compaction on an attached store.
func (st *Store) persistShard(i int) error {
	st.persistMu.Lock()
	defer st.persistMu.Unlock()
	return st.persistShardLocked(i)
}

// persistShardLocked (persistMu held) does the work. The heavy run
// writes happen off the shard's write lock against the immutable
// tables (retrying if a compaction republishes the run set mid-write);
// runs already committed by an earlier generation reuse their files,
// so the common checkpoint of an unchanged shard is a WAL+manifest-
// only commit (~one fsync), and a tiered flush commits just its one
// small new run. The WAL seed and the manifest rename happen under the
// lock, so the commit point and the captured pending set agree exactly
// — this is what keeps the replay invariant through compaction
// truncations. Writers to this one shard stall for the WAL+manifest
// commit; readers and other shards are unaffected.
func (st *Store) persistShardLocked(i int) error {
	dir := st.dir
	gen := st.gen + 1
	for {
		s := st.shards[i].Load()
		runs, err := st.writeRuns(dir, i, gen, s, st.persistedRuns[i])
		if err != nil {
			return err
		}

		st.writeMu[i].Lock()
		s2 := st.shards[i].Load()
		if !slices.Equal(s2.runs, s.runs) { // pointer identity: runs are immutable
			st.writeMu[i].Unlock()
			continue // run set republished mid-write; redo (same gen, files overwritten)
		}
		walName := walFileName(i, gen)
		w, err := persist.CreateWAL(filepath.Join(dir, walName), pendingOps(s2))
		if err != nil {
			st.writeMu[i].Unlock()
			return err
		}
		shards := append([]persist.ShardMeta(nil), st.meta...)
		shards[i] = persist.ShardMeta{Sep: st.seps[i], Codec: s.runIDs[0], WAL: walName, Runs: runs}
		m := &persist.Manifest{Family: st.cfg.Family, Gen: gen, Shards: shards}
		if err := persist.WriteManifest(filepath.Join(dir, persist.ManifestName), m); err != nil {
			w.Close()
			st.writeMu[i].Unlock()
			return err
		}
		// Committed: swap the live WAL, retire the old generation.
		if old := st.wals[i]; old != nil {
			old.Close()
		}
		st.wals[i] = w
		st.writeMu[i].Unlock()
		st.meta = shards
		st.gen = gen
		// Re-key the committed-run map to exactly the current run set so
		// superseded runs drop out and their tables can be collected.
		committed := make(map[*table.Table]persist.RunMeta, len(s.runs))
		for r, t := range s.runs {
			committed[t] = runs[r]
		}
		st.persistedRuns[i] = committed
		cleanStaleShardFiles(dir, m)
		return nil
	}
}

// Open loads a store from a snapshot directory: each shard's run files
// are read through io.ReaderAt into their final arrays, their indexes
// decoded from trained parameters (no retraining; runs without an
// encoded index are rebuilt from the loaded keys), tombstone bits
// restored, and the WAL replayed into the pending delta — so the store
// serves exactly the state current when the snapshot (plus any logged
// writes) was taken. The returned store is attached: subsequent writes
// append to the WALs and compactions advance the on-disk state. cfg
// supplies the runtime knobs (CompactThreshold, MaxRuns, AmpBound,
// SyncWrites, builderFor, and Workers for later Snapshots); the shard
// structure, family and index configuration come from the manifest.
func Open(dir string, cfg Config) (*Store, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	m, err := persist.ReadManifest(filepath.Join(abs, persist.ManifestName))
	if err != nil {
		return nil, fmt.Errorf("serve: open %s: %w", dir, err)
	}
	cfg.Family = m.Family
	nShards := len(m.Shards)
	st := newStore(cfg, nShards)
	st.dir, st.gen = abs, m.Gen
	st.meta = append([]persist.ShardMeta(nil), m.Shards...)

	// Populate the boundary metadata first: the shard loaders below
	// read neighbouring separators for their routing checks.
	for i := range m.Shards {
		st.seps[i] = m.Shards[i].Sep
	}
	st.persistedRuns = make([]map[*table.Table]persist.RunMeta, nShards)
	err = st.populate(func(i int) error { return st.openShard(abs, i, &m.Shards[i]) })
	if err != nil {
		for _, w := range st.wals {
			if w != nil {
				w.Close()
			}
		}
		return nil, err
	}
	// A replayed delta past the threshold has queued its shard (commit
	// does, as for any write): the compactor picks it up right away
	// instead of waiting for the next write.
	st.start()
	return st, nil
}

// openShard loads one shard: its run files and its WAL.
func (st *Store) openShard(dir string, i int, meta *persist.ShardMeta) error {
	runs := make([]*table.Table, len(meta.Runs))
	runIDs := make([]string, len(meta.Runs))
	// The just-loaded runs are exactly what the manifest committed, so
	// the first checkpoint of an unchanged shard can reuse every file.
	committed := make(map[*table.Table]persist.RunMeta, len(meta.Runs))
	for r, rm := range meta.Runs {
		var err error
		if runs[r], runIDs[r], err = st.openRun(dir, i, r, &rm, meta.Codec); err != nil {
			return err
		}
		rm.Codec = runIDs[r] // a run rebuilt at load carries the tag it was built under
		committed[runs[r]] = rm
	}
	st.persistedRuns[i] = committed

	wal, ops, err := persist.OpenWAL(filepath.Join(dir, meta.WAL))
	if err != nil {
		return fmt.Errorf("serve: shard %d wal: %w", i, err)
	}
	for _, op := range ops {
		if st.shardOf(op.Key) != i {
			wal.Close()
			return fmt.Errorf("serve: shard %d wal holds key %d owned by shard %d", i, op.Key, st.shardOf(op.Key))
		}
	}
	// Replay is a commit like any other write. The log is attached only
	// afterwards, so the records are not appended to the file they came
	// from.
	st.shards[i].Store(&shardState{runs: runs, runIDs: runIDs, del: emptyDelta})
	st.commit(i, ops, nil)
	st.wals[i] = wal
	return nil
}

// openRun loads run r of shard i, whose tag in the manifest is
// shardTag, from its run file. It returns the run's codec tag with it
// — the manifest's, unless the index had to be rebuilt, which reports
// the tag it was built under.
// The mapping a table serves from is released by a cleanup on that
// table, never by Close: a closed store still serves.
func (st *Store) openRun(dir string, i, r int, rm *persist.RunMeta, shardTag string) (tab *table.Table, tag string, err error) {
	run, unmap, err := persist.ReadRun(filepath.Join(dir, rm.File))
	if err != nil {
		return nil, "", fmt.Errorf("serve: shard %d run %d: %w", i, r, err)
	}
	defer func() {
		if err != nil || tab.Len() == 0 {
			unmap()
		} else {
			runtime.AddCleanup(tab, func(unmap func()) { unmap() }, unmap)
		}
	}()
	keys, payloads, tombs, idx := run.Keys, run.Payloads, run.Tombs, run.Index
	// Boundary check: a run file swapped between shards would pass
	// its own checksums but violate the routing invariant. Shard 0 has
	// no lower fence — keys below every separator route to it (see
	// shardOf), so any of its runs may legitimately start below seps[0].
	if len(keys) > 0 {
		if i > 0 && keys[0] < st.seps[i] {
			return nil, "", fmt.Errorf("serve: shard %d run %d starts at %d, before separator %d", i, r, keys[0], st.seps[i])
		}
		if i+1 < len(st.seps) && keys[len(keys)-1] >= st.seps[i+1] {
			return nil, "", fmt.Errorf("serve: shard %d run %d crosses into shard %d", i, r, i+1)
		}
	}
	if r == 0 && tombs != nil {
		return nil, "", fmt.Errorf("serve: shard %d base run carries tombstones", i)
	}

	switch {
	case len(keys) == 0:
		return table.Empty(search.BinarySearch), rm.Codec, nil
	case idx != nil:
		if fam, _ := registry.ParseID(rm.Codec); fam != idx.Name() {
			// A mismatch between the manifest tag and the frame's own
			// family is tampering — except when the tag names a custom
			// builder (no codec of its own) that produced an index of a
			// codec family; there the frame's self-description wins.
			if _, tagHasCodec := registry.CodecFor(fam); tagHasCodec {
				return nil, "", fmt.Errorf("serve: shard %d run %d index family %q does not match codec tag %q", i, r, idx.Name(), rm.Codec)
			}
		}
		if err := sampleValidate(keys, idx); err != nil {
			return nil, "", fmt.Errorf("serve: shard %d run %d: %w", i, r, err)
		}
		tab, err := table.NewTombed(keys, payloads, tombs, idx, search.BinarySearch)
		if err != nil {
			return nil, "", fmt.Errorf("serve: shard %d run %d: %w", i, r, err)
		}
		return tab, rm.Codec, nil
	default:
		// No encoded index (a family without a codec, or a plain
		// binary-search tier run): rebuild from the loaded keys — the
		// documented retraining fallback — as a compaction would have
		// built the run.
		tab, tag, err := st.buildRun(i, r, shardTag, keys, payloads, tombs)
		if err != nil {
			return nil, "", fmt.Errorf("serve: shard %d run %d rebuild: %w", i, r, err)
		}
		return tab, tag, nil
	}
}

// sampleValidate spot-checks a decoded index against the run's keys: a
// sample of present keys (plus both extremes) must produce valid
// lower-bound search bounds. Checksums catch bit rot; this catches a
// structurally-valid index written beside the wrong keys (sizes or key
// ranges that drifted apart), at a cost independent of table size.
func sampleValidate(keys []core.Key, idx core.Index) error {
	n := len(keys)
	const samples = 64
	step := n / samples
	if step < 1 {
		step = 1
	}
	check := func(pos int) error {
		x := keys[pos]
		if b := idx.Lookup(x); !core.ValidBound(keys, x, b) {
			return fmt.Errorf("decoded index returns invalid bound %v for key %d", idx.Lookup(x), x)
		}
		return nil
	}
	for pos := 0; pos < n; pos += step {
		if err := check(pos); err != nil {
			return err
		}
	}
	return check(n - 1)
}
