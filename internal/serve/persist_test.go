package serve

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/persist"
	"repro/internal/registry"
)

// snapshotManifest reads a snapshot directory's committed manifest —
// shard file names are generation-suffixed, so tests resolve them
// through it exactly as Open does.
func snapshotManifest(t *testing.T, dir string) *persist.Manifest {
	t.Helper()
	m, err := persist.ReadManifest(filepath.Join(dir, persist.ManifestName))
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	return m
}

// collectState scans the store's full live state into a map.
func collectState(st *Store) map[core.Key]uint64 {
	out := map[core.Key]uint64{}
	st.Scan(0, ^core.Key(0), func(k core.Key, v uint64) bool {
		out[k] = v
		return true
	})
	// The open upper bound misses the max key; probe it directly.
	if v, ok := st.Get(^core.Key(0)); ok {
		out[^core.Key(0)] = v
	}
	return out
}

func assertStateEqual(t *testing.T, st *Store, want map[core.Key]uint64, label string) {
	t.Helper()
	got := collectState(st)
	if len(got) != len(want) {
		t.Fatalf("%s: %d live keys, want %d", label, len(got), len(want))
	}
	for k, v := range want {
		gv, ok := got[k]
		if !ok || gv != v {
			t.Fatalf("%s: key %d = (%d,%v), want %d", label, k, gv, ok, v)
		}
		// Scan and Get must agree.
		pv, pok := st.Get(k)
		if !pok || pv != v {
			t.Fatalf("%s: Get(%d) = (%d,%v), want %d", label, k, pv, pok, v)
		}
	}
}

// TestSnapshotOpenRoundTrip covers every codec family end to end:
// build, write, snapshot, open, and verify the exact live state plus
// that the warm store decoded (rather than rebuilt) its indexes.
func TestSnapshotOpenRoundTrip(t *testing.T) {
	keys, payloads := testData(t, 6000)
	for _, family := range []string{"RMI", "PGM", "RS", "RBS", "BTree"} {
		st, err := New(keys, payloads, Config{Shards: 4, Family: family, CompactThreshold: -1})
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		oracle := map[core.Key]uint64{}
		for i, k := range keys {
			oracle[k] = payloads[i]
		}
		// A mix of pending writes so the snapshot captures a dirty store.
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 500; i++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(3) {
			case 0:
				st.Put(k, uint64(i)+1_000_000)
				oracle[k] = uint64(i) + 1_000_000
			case 1:
				st.Delete(k)
				delete(oracle, k)
			case 2:
				nk := k + 1
				st.Put(nk, uint64(i))
				oracle[nk] = uint64(i)
			}
		}

		dir := filepath.Join(t.TempDir(), family)
		if err := st.Snapshot(dir); err != nil {
			t.Fatalf("%s: snapshot: %v", family, err)
		}
		st.Close()

		warm, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("%s: open: %v", family, err)
		}
		if warm.NumShards() != st.NumShards() {
			t.Fatalf("%s: %d shards after open, want %d", family, warm.NumShards(), st.NumShards())
		}
		for i := 0; i < warm.NumShards(); i++ {
			if n := warm.Shard(i).Len(); n > 0 {
				if got := warm.Shard(i).Index().Name(); got != family {
					t.Fatalf("%s: shard %d index decoded as %q", family, i, got)
				}
			}
		}
		assertStateEqual(t, warm, oracle, family)
		warm.Close()
	}
}

// TestRMIBoundsSurviveSnapshot: a shard's decoded RMI is the built one.
// Every key, its absent neighbours and the extremes get bit-identical
// bounds from the store that built the index and from the one that
// opened its snapshot — the folded leaves and the log2 error travel
// whole, nothing is re-derived on load.
func TestRMIBoundsSurviveSnapshot(t *testing.T) {
	keys, payloads := testData(t, 40000)
	st, err := New(keys, payloads, Config{Shards: 4, Family: "RMI", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	warm, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	probes := []core.Key{0, 1, ^core.Key(0) - 1, ^core.Key(0)}
	for _, k := range keys {
		probes = append(probes, k-1, k, k+1)
	}
	for i := 0; i < st.NumShards(); i++ {
		built, opened := st.Shard(i).Index(), warm.Shard(i).Index()
		if opened.Name() != "RMI" || opened.SizeBytes() != built.SizeBytes() {
			t.Fatalf("shard %d: opened a %d-byte %s, built a %d-byte RMI", i, opened.SizeBytes(), opened.Name(), built.SizeBytes())
		}
		for _, x := range probes {
			if b, w := built.Lookup(x), opened.Lookup(x); b != w {
				t.Fatalf("shard %d key %d: bound %v built, %v after snapshot and open", i, x, b, w)
			}
		}
	}
}

// TestOpenCrashSimulatedWALTail is the acceptance scenario: snapshot,
// reopen attached, write, then "crash" (no Close, a torn record
// appended to a WAL) and verify the reopened store serves the exact
// pre-crash state.
func TestOpenCrashSimulatedWALTail(t *testing.T) {
	keys, payloads := testData(t, 5000)
	st, err := New(keys, payloads, Config{Shards: 3, Family: "PGM"})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[core.Key]uint64{}
	for i, k := range keys {
		oracle[k] = payloads[i]
	}
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	st.Close()

	live, err := Open(dir, Config{CompactThreshold: 200})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Enough writes to cross the compaction threshold (so a WAL
	// truncation happens mid-stream) plus deletes and fresh keys.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1500; i++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(4) {
		case 0, 1:
			live.Put(k, uint64(i)+5_000_000)
			oracle[k] = uint64(i) + 5_000_000
		case 2:
			live.Delete(k)
			delete(oracle, k)
		case 3:
			nk := k + 2
			live.Put(nk, uint64(i))
			oracle[nk] = uint64(i)
		}
		if i%97 == 0 {
			// Explicit barrier racing the background compactor's WAL
			// swaps — must be safe and never sync a closed log.
			if err := live.SyncWAL(); err != nil {
				t.Fatalf("SyncWAL: %v", err)
			}
		}
	}
	live.WaitCompactions()
	if err := live.PersistErr(); err != nil {
		t.Fatalf("persist err: %v", err)
	}
	assertStateEqual(t, live, oracle, "live pre-crash")
	// Crash: abandon the store without Close or Snapshot, then tear the
	// tail of one WAL (a record cut mid-write by the crash).
	walPath := filepath.Join(dir, snapshotManifest(t, dir).Shards[1].WAL)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte{0x5A}, 17)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	assertStateEqual(t, recovered, oracle, "recovered")
	recovered.Close()
	live.Close()
}

// TestSnapshotWithConcurrentWritersAndCompaction is the map-oracle
// stress: writers on disjoint key ranges run while a mid-stream
// snapshot (with compactions in flight) is taken; the mid-stream
// snapshot must open to a consistent store, and a final quiesced
// snapshot must reproduce the oracle exactly.
func TestSnapshotWithConcurrentWritersAndCompaction(t *testing.T) {
	keys, payloads := testData(t, 8000)
	st, err := New(keys, payloads, Config{Shards: 4, Family: "RBS", CompactThreshold: 128})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[core.Key]uint64{}
	for i, k := range keys {
		oracle[k] = payloads[i]
	}

	const writers = 4
	const opsPerWriter = 2000
	var wg sync.WaitGroup
	oracles := make([]map[core.Key]uint64, writers)
	span := len(keys) / writers
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			// Each writer owns a disjoint slice of the key space, so the
			// final oracle is the overlay of per-writer oracles.
			mine := map[core.Key]uint64{}
			rng := rand.New(rand.NewSource(int64(wid) * 31))
			lo := wid * span
			for i := 0; i < opsPerWriter; i++ {
				k := keys[lo+rng.Intn(span)]
				if rng.Intn(3) == 0 {
					st.Delete(k)
					mine[k] = ^uint64(0) // tombstone marker
				} else {
					v := uint64(wid*opsPerWriter + i)
					st.Put(k, v)
					mine[k] = v
				}
			}
			oracles[wid] = mine
		}(wid)
	}

	// Snapshot mid-stream, twice, while writers and background
	// compactions are running.
	midDir := filepath.Join(t.TempDir(), "mid")
	for round := 0; round < 2; round++ {
		if err := st.Snapshot(midDir); err != nil {
			t.Fatalf("mid-stream snapshot: %v", err)
		}
	}
	wg.Wait()

	// The mid-stream snapshot is a consistent point-in-time capture:
	// it must open cleanly and agree with itself (Get vs Scan).
	mid, err := Open(midDir, Config{})
	if err != nil {
		t.Fatalf("open mid-stream snapshot: %v", err)
	}
	state := collectState(mid)
	if len(state) == 0 {
		t.Fatal("mid-stream snapshot is empty")
	}
	for k, v := range state {
		gv, ok := mid.Get(k)
		if !ok || gv != v {
			t.Fatalf("mid snapshot: Get(%d) = (%d,%v), scan says %d", k, gv, ok, v)
		}
	}
	mid.Close()

	// Fold writer oracles into the base oracle.
	for _, mine := range oracles {
		for k, v := range mine {
			if v == ^uint64(0) {
				delete(oracle, k)
			} else {
				oracle[k] = v
			}
		}
	}
	assertStateEqual(t, st, oracle, "store after writers")

	finalDir := filepath.Join(t.TempDir(), "final")
	if err := st.Snapshot(finalDir); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	st.Close()
	warm, err := Open(finalDir, Config{})
	if err != nil {
		t.Fatalf("open final: %v", err)
	}
	assertStateEqual(t, warm, oracle, "final restored")
	warm.Close()
}

// TestCompactionTruncatesWAL verifies the WAL contract on an attached
// store: after compactions quiesce, each shard's log holds only the
// still-pending writes, and a reopen agrees with the live state.
func TestCompactionTruncatesWAL(t *testing.T) {
	keys, payloads := testData(t, 4000)
	st, err := New(keys, payloads, Config{Shards: 2, Family: "BTree"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()

	live, err := Open(dir, Config{CompactThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[core.Key]uint64{}
	for i, k := range keys {
		oracle[k] = payloads[i]
	}
	for i := 0; i < 1000; i++ {
		k := keys[(i*37)%len(keys)]
		live.Put(k, uint64(i))
		oracle[k] = uint64(i)
	}
	live.WaitCompactions()
	if err := live.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := live.PersistErr(); err != nil {
		t.Fatalf("persist err: %v", err)
	}
	if got := live.DeltaLen(); got != 0 {
		t.Fatalf("delta len %d after full compact", got)
	}
	// Fully compacted: every committed WAL should be empty (header
	// only).
	for i, sm := range snapshotManifest(t, dir).Shards {
		fi, err := os.Stat(filepath.Join(dir, sm.WAL))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != 16 { // header-only log
			t.Fatalf("shard %d wal is %d bytes after compact, want 16", i, fi.Size())
		}
	}
	live.Close()

	warm, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertStateEqual(t, warm, oracle, "after truncated reopen")
	warm.Close()
}

// TestWriteOverFailingWAL: Put and Apply take the same path over a log
// that refuses appends (the shard's live WAL is closed underneath the
// store). The write is still published — durability is degraded, not
// the store — the append's error is what PersistErr holds, and with
// SyncWrites on no fsync is spent on a log with a hole in it.
func TestWriteOverFailingWAL(t *testing.T) {
	keys, payloads := testData(t, 2000)
	seed, err := New(keys, payloads, Config{Shards: 1, Family: "BTree"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := seed.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	seed.Close()
	fresh := []persist.Op{{Key: keys[10] + 1, Val: 71}, {Key: keys[20], Tomb: true}, {Key: keys[30] + 1, Val: 73}}
	for _, row := range []struct {
		name  string
		write func(st *Store)
	}{
		{"Put", func(st *Store) {
			st.Put(fresh[0].Key, fresh[0].Val)
			st.Delete(fresh[1].Key)
			st.Put(fresh[2].Key, fresh[2].Val)
		}},
		{"Apply", func(st *Store) {
			if err := st.Apply(0, fresh); err != nil {
				t.Error(err)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			st, err := Open(dir, Config{CompactThreshold: -1, SyncWrites: true})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.wals[0].Close(); err != nil {
				t.Fatal(err)
			}
			before := persist.CountersNow()
			row.write(st)
			after := persist.CountersNow()
			if err := st.PersistErr(); !errors.Is(err, os.ErrClosed) {
				t.Fatalf("PersistErr = %v, want the refused append", err)
			}
			if after.WALAppends != before.WALAppends || after.Fsyncs != before.Fsyncs {
				t.Errorf("%d appends and %d fsyncs counted on a log that refuses appends, want none",
					after.WALAppends-before.WALAppends, after.Fsyncs-before.Fsyncs)
			}
			for _, op := range fresh {
				if v, ok := st.Get(op.Key); ok == op.Tomb || v != op.Val {
					t.Errorf("Get(%d) = (%d,%v) after %+v", op.Key, v, ok, op)
				}
			}
		})
	}
}

// TestEmptyShardPersistence deletes every key of shard 0, compacts it
// to an empty table, and round-trips through a snapshot.
func TestEmptyShardPersistence(t *testing.T) {
	keys, payloads := testData(t, 3000)
	st, err := New(keys, payloads, Config{Shards: 3, Family: "PGM", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[core.Key]uint64{}
	for i, k := range keys {
		oracle[k] = payloads[i]
	}
	// Empty out shard 0 (all keys below the second separator).
	end := core.LowerBound(keys, st.seps[1])
	for _, k := range keys[:end] {
		st.Delete(k)
		delete(oracle, k)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.Shard(0).Len() != 0 {
		t.Fatalf("shard 0 not empty: %d", st.Shard(0).Len())
	}
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	st.Close()
	warm, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	assertStateEqual(t, warm, oracle, "empty-shard restore")
	// Writes into the emptied shard must still route and persist.
	warm.Put(keys[0], 77)
	oracle[keys[0]] = 77
	if err := warm.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	again, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertStateEqual(t, again, oracle, "write into empty shard")
	again.Close()
}

// TestOpenRejectsTombstonedBase rewrites a shard's base run file with
// tombstone bits: the file is sound on its own, but a base run never
// carries deletes, and Open must refuse it.
func TestOpenRejectsTombstonedBase(t *testing.T) {
	keys, payloads := testData(t, 2000)
	st, err := New(keys, payloads, Config{Shards: 2, Family: "PGM"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, snapshotManifest(t, dir).Shards[1].Runs[0].File)
	run, unmap, err := persist.ReadRun(path)
	if err != nil {
		t.Fatal(err)
	}
	defer unmap()
	run.Tombs = make([]bool, len(run.Keys))
	if err := persist.WriteRun(path, run); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Config{}); err == nil || !strings.Contains(err.Error(), "base run carries tombstones") {
		t.Fatalf("Open of a tombstoned base run: err = %v", err)
	}
}

// TestOpenRejectsTamperedSnapshot swaps two shards' run files; the
// boundary validation must refuse to serve them.
func TestOpenRejectsTamperedSnapshot(t *testing.T) {
	keys, payloads := testData(t, 4000)
	st, err := New(keys, payloads, Config{Shards: 2, Family: "RBS"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()
	m := snapshotManifest(t, dir)
	a := filepath.Join(dir, m.Shards[0].Runs[0].File)
	b := filepath.Join(dir, m.Shards[1].Runs[0].File)
	tmp := filepath.Join(dir, "x")
	os.Rename(a, tmp)
	os.Rename(b, a)
	os.Rename(tmp, b)
	if _, err := Open(dir, Config{}); err == nil {
		t.Fatal("swapped shard tables opened without error")
	}
}

// TestOpenNoCodecFallback snapshots a family without a registered
// codec (ART) and verifies Open rebuilds its indexes from the loaded
// keys.
func TestOpenNoCodecFallback(t *testing.T) {
	keys, payloads := testData(t, 3000)
	st, err := New(keys, payloads, Config{Shards: 2, Family: "ART"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatalf("snapshot without codec: %v", err)
	}
	st.Close()
	warm, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	oracle := map[core.Key]uint64{}
	for i, k := range keys {
		oracle[k] = payloads[i]
	}
	assertStateEqual(t, warm, oracle, "ART fallback")
	for i := 0; i < warm.NumShards(); i++ {
		if got := warm.Shard(i).Index().Name(); got != "ART" {
			t.Fatalf("shard %d rebuilt as %q", i, got)
		}
	}
	warm.Close()
}

// TestStableIDsAcrossProcesses pins the satellite contract: catalog
// entries are addressable by deterministic string IDs, and the IDs in
// a written manifest resolve back to the same configuration.
func TestStableIDsAcrossProcesses(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 3000, 11)
	for _, family := range []string{"BTree", "RBS", "PGM", "RS"} {
		nb, ok := registry.Builder(family, keys)
		if !ok {
			t.Fatalf("%s: no builder", family)
		}
		id := registry.ID(family, nb.Label)
		fam, label := registry.ParseID(id)
		if fam != family || label != nb.Label {
			t.Fatalf("ParseID(%q) = %q,%q", id, fam, label)
		}
		// The same ID must resolve to the same catalog entry in a
		// fresh lookup (as a new process would).
		got, ok := registry.SweepEntry(fam, label, keys)
		if !ok {
			t.Fatalf("%s: SweepEntry(%q) not found", family, label)
		}
		if got.Builder != nb.Builder {
			t.Fatalf("%s: SweepEntry(%q) resolved a different builder: %+v vs %+v", family, label, got.Builder, nb.Builder)
		}
	}
}

// TestSnapshotAttachedBySpelledPath ensures attached-directory
// detection is path-identity based, not string based: snapshotting the
// attached directory under a different spelling must still refresh the
// live WALs instead of orphaning them.
func TestSnapshotAttachedBySpelledPath(t *testing.T) {
	keys, payloads := testData(t, 2000)
	st, err := New(keys, payloads, Config{Shards: 2, Family: "RBS"})
	if err != nil {
		t.Fatal(err)
	}
	parent := t.TempDir()
	dir := filepath.Join(parent, "snap")
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()

	live, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	live.Put(keys[0], 42)
	// Same directory, different spelling.
	if err := live.Snapshot(filepath.Join(parent, ".", "snap")); err != nil {
		t.Fatal(err)
	}
	// Writes after the snapshot must still be durable (the live WAL
	// must be the committed one, not an orphaned inode).
	live.Put(keys[1], 43)
	rec, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := rec.Get(keys[0]); !ok || v != 42 {
		t.Fatalf("pre-snapshot write lost: (%d,%v)", v, ok)
	}
	if v, ok := rec.Get(keys[1]); !ok || v != 43 {
		t.Fatalf("post-snapshot write lost: (%d,%v) — WAL orphaned by re-spelled Snapshot", v, ok)
	}
	rec.Close()
	live.Close()
}

// TestBelowSeparatorKeySurvivesReopen is the shard-0 lower-fence
// regression: keys below every separator route to shard 0 (shardOf),
// so a compacted shard-0 base legitimately starting below seps[0]
// must snapshot and reopen.
func TestBelowSeparatorKeySurvivesReopen(t *testing.T) {
	keys, payloads := testData(t, 3000)
	st, err := New(keys, payloads, Config{Shards: 3, Family: "PGM", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	low := keys[0] - 7 // below the store's entire key range
	st.Put(low, 999)
	if err := st.Compact(); err != nil {
		t.Fatal(err) // merges `low` into shard 0's base, below seps[0]
	}
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()
	warm, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("open after below-separator compaction: %v", err)
	}
	if v, ok := warm.Get(low); !ok || v != 999 {
		t.Fatalf("below-separator key lost: (%d,%v)", v, ok)
	}
	warm.Close()
}

// customBuilder is a builder under a family name the registry does not
// know, exercising the builderFor rebuild path at Open. wrapIndex
// selects whether the built index also reports the custom family
// (true: no codec applies, snapshots carry no index file) or keeps the
// inner family's name (false: the index is encodable even though the
// builder is custom).
type customBuilder struct {
	inner     core.Builder
	wrapIndex bool
}

func (customBuilder) Name() string { return "CustomFamily" }
func (b customBuilder) Build(keys []core.Key) (core.Index, error) {
	idx, err := b.inner.Build(keys)
	if err != nil || !b.wrapIndex {
		return idx, err
	}
	return customIndex{idx}, nil
}

type customIndex struct{ core.Index }

func (customIndex) Name() string { return "CustomFamily" }

// TestOpenCustomBuilderFor: a store built (and snapshotted) through a
// caller-supplied builderFor whose family is not in the registry must
// reopen when the caller supplies the same builderFor to Open.
func TestOpenCustomBuilderFor(t *testing.T) {
	keys, payloads := testData(t, 2500)
	oracle := map[core.Key]uint64{}
	for i, k := range keys {
		oracle[k] = payloads[i]
	}
	mk := func(wrapIndex bool) func(int, []core.Key) (core.Builder, error) {
		return func(_ int, ks []core.Key) (core.Builder, error) {
			nb, ok := registry.Builder("RBS", ks)
			if !ok {
				t.Fatal("no RBS builder")
			}
			return customBuilder{inner: nb.Builder, wrapIndex: wrapIndex}, nil
		}
	}

	// Fully custom index family: no codec, so the snapshot carries no
	// index files and reopening needs the caller's builder.
	builderFor := mk(true)
	st, err := New(keys, payloads, Config{Shards: 2, builderFor: builderFor})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatalf("snapshot custom family: %v", err)
	}
	st.Close()
	if _, err := Open(dir, Config{}); err == nil {
		t.Fatal("open without builderFor unexpectedly succeeded")
	}
	warm, err := Open(dir, Config{builderFor: builderFor})
	if err != nil {
		t.Fatalf("open with builderFor: %v", err)
	}
	assertStateEqual(t, warm, oracle, "custom-builder restore")
	warm.Close()

	// Custom builder whose index keeps a codec family's name: the
	// index is encoded under its own family and must warm-load even
	// though the manifest codec tag names the custom builder.
	st2, err := New(keys, payloads, Config{Shards: 2, builderFor: mk(false)})
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := st2.Snapshot(dir2); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	warm2, err := Open(dir2, Config{})
	if err != nil {
		t.Fatalf("open wrapper-builder snapshot: %v", err)
	}
	for i := 0; i < warm2.NumShards(); i++ {
		if got := warm2.Shard(i).Index().Name(); got != "RBS" {
			t.Fatalf("shard %d not warm-decoded: %q", i, got)
		}
	}
	assertStateEqual(t, warm2, oracle, "wrapper-builder restore")
	warm2.Close()
}

// TestCheckpointReusesUnchangedBase: an attached checkpoint of a shard
// whose base has not changed since its last commit must reuse the
// committed table/index files (WAL+manifest-only commit) while still
// capturing the pending writes.
func TestCheckpointReusesUnchangedBase(t *testing.T) {
	keys, payloads := testData(t, 2000)
	st, err := New(keys, payloads, Config{Shards: 2, Family: "PGM"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()
	live, err := Open(dir, Config{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	m1 := snapshotManifest(t, dir)
	live.Put(keys[0], 7777) // delta-only; bases untouched
	if err := live.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	m2 := snapshotManifest(t, dir)
	if m2.Gen <= m1.Gen {
		t.Fatalf("checkpoint did not advance generation: %d -> %d", m1.Gen, m2.Gen)
	}
	for i := range m2.Shards {
		if m2.Shards[i].Runs[0].File != m1.Shards[i].Runs[0].File {
			t.Fatalf("shard %d base rewritten on unchanged-base checkpoint: %+v -> %+v", i, m1.Shards[i], m2.Shards[i])
		}
		if m2.Shards[i].WAL == m1.Shards[i].WAL {
			t.Fatalf("shard %d WAL not recommitted", i)
		}
	}
	live.Close()
	warm, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := warm.Get(keys[0]); !ok || v != 7777 {
		t.Fatalf("checkpointed write lost: (%d,%v)", v, ok)
	}
	warm.Close()
}

// TestTieredPersistenceRoundTrip: an attached tiered store commits its
// run sets incrementally — a flush adds one small run file set, the
// base files are reused — and a reopen restores the multi-run shards
// (tables, tier indexes, tombstone bitmaps) plus the WAL'd pending
// writes exactly.
func TestTieredPersistenceRoundTrip(t *testing.T) {
	keys, payloads := testData(t, 6000)
	st, err := New(keys, payloads, Config{Shards: 2, Family: "PGM"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()
	m0 := snapshotManifest(t, dir)

	live, err := Open(dir, Config{CompactThreshold: 64, MaxRuns: 4})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[core.Key]uint64{}
	for i, k := range keys {
		oracle[k] = payloads[i]
	}
	// Inserts plus deletions of base keys: the flushed tier runs carry
	// tombstones that must survive the round trip.
	ins := dataset.InsertKeys(keys, 600, 13)
	for i, k := range ins {
		live.Put(k, uint64(i)+1)
		oracle[k] = uint64(i) + 1
		if i%4 == 0 {
			victim := keys[(i*11)%len(keys)]
			live.Delete(victim)
			delete(oracle, victim)
		}
	}
	live.WaitCompactions()
	if live.MaxRunCount() < 2 {
		t.Fatalf("max run count %d, want >= 2", live.MaxRunCount())
	}
	if err := live.PersistErr(); err != nil {
		t.Fatalf("persist err: %v", err)
	}
	m1 := snapshotManifest(t, dir)
	multiRun, tombed, baseReused := false, false, false
	for i, sm := range m1.Shards {
		if len(sm.Runs) > 1 {
			multiRun = true
		}
		for _, rm := range sm.Runs[1:] {
			if run, unmap, err := persist.ReadRun(filepath.Join(dir, rm.File)); err == nil {
				tombed = tombed || run.Tombs != nil
				unmap()
			}
		}
		if sm.Runs[0].File == m0.Shards[i].Runs[0].File {
			baseReused = true
		}
	}
	if !multiRun {
		t.Fatal("committed manifest holds no multi-run shard")
	}
	if !tombed {
		t.Fatal("no committed tier run carries a tombstone bitmap")
	}
	if !baseReused {
		t.Fatal("flush commits rewrote every base run instead of reusing committed files")
	}

	// A few more writes stay in the WAL as the pending delta.
	for i := 0; i < 20; i++ {
		k := ins[i*7%len(ins)]
		live.Put(k, uint64(i)<<16|9)
		oracle[k] = uint64(i)<<16 | 9
	}
	live.Close()

	warm, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertStateEqual(t, warm, oracle, "tiered reopen")
	if warm.MaxRunCount() < 2 {
		t.Fatalf("reopened store lost its tier runs: max run count %d", warm.MaxRunCount())
	}
	// And the reopened store keeps compacting: full merge, then check.
	if err := warm.Compact(); err != nil {
		t.Fatal(err)
	}
	assertStateEqual(t, warm, oracle, "tiered reopen + merge")
	warm.Close()
}

// TestAttachedCheckpointUnderWrites is the attached-mode stress: a
// store opened from its own directory takes repeated own-dir
// checkpoints (Snapshot to the attached path commits shard by shard
// and swaps the live WALs) while writers land ops and background
// compactions run. Whatever interleaving the race produces, a reopen
// from the directory must serve exactly the final oracle — a
// checkpoint can never tear the WAL-swap against an in-flight write.
func TestAttachedCheckpointUnderWrites(t *testing.T) {
	keys, payloads := testData(t, 6000)
	seed, err := New(keys, payloads, Config{Shards: 4, Family: "PGM"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := seed.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	st, err := Open(dir, Config{CompactThreshold: 128})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[core.Key]uint64{}
	for i, k := range keys {
		oracle[k] = payloads[i]
	}

	const writers = 4
	const opsPerWriter = 1500
	var wg sync.WaitGroup
	oracles := make([]map[core.Key]uint64, writers)
	span := len(keys) / writers
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			mine := map[core.Key]uint64{}
			rng := rand.New(rand.NewSource(int64(wid)*97 + 5))
			lo := wid * span
			for i := 0; i < opsPerWriter; i++ {
				k := keys[lo+rng.Intn(span)]
				if rng.Intn(4) == 0 {
					st.Delete(k)
					mine[k] = ^uint64(0)
				} else {
					v := uint64(wid)<<32 | uint64(i)
					st.Put(k, v)
					mine[k] = v
				}
			}
			oracles[wid] = mine
		}(wid)
	}

	// Checkpoint the attached directory repeatedly while the writers
	// run — each call commits every shard at some consistent cut and
	// truncates its WAL to the writes still pending at that cut.
	checkpointErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 6; round++ {
			if err := st.Snapshot(dir); err != nil {
				checkpointErr <- err
				return
			}
		}
		checkpointErr <- nil
	}()
	wg.Wait()
	if err := <-checkpointErr; err != nil {
		t.Fatalf("attached checkpoint: %v", err)
	}

	for _, mine := range oracles {
		for k, v := range mine {
			if v == ^uint64(0) {
				delete(oracle, k)
			} else {
				oracle[k] = v
			}
		}
	}
	assertStateEqual(t, st, oracle, "attached store after checkpoints")
	if err := st.PersistErr(); err != nil {
		t.Fatalf("background persistence failed: %v", err)
	}
	st.WaitCompactions()
	st.Close()

	warm, err := Open(dir, Config{})
	if err != nil {
		t.Fatalf("reopen after checkpoint churn: %v", err)
	}
	assertStateEqual(t, warm, oracle, "reopened after checkpoint churn")
	warm.Close()
}
