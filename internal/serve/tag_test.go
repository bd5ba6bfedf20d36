package serve

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
)

// TestShardTagPinnedColdAndWarm holds a shard's codec tag to the
// manifest's promise — any process re-finds, from the tag, the catalog
// entry that built the shard's base run — through every step that
// rebuilds or reloads the base, and a warm-opened store to rebuilding
// exactly as one that never restarted. After each step the tag is a
// labelled catalog ID, a fixed point of registry.Rebuild over the base
// run's keys, and what the manifest records for the shard and for its
// base run.
func TestShardTagPinnedColdAndWarm(t *testing.T) {
	for _, family := range []string{"RMI", "PGM", "BTree"} {
		t.Run(family, func(t *testing.T) {
			keys, payloads := testData(t, 6000)
			inserts := dataset.InsertKeys(keys, 3000, 29)
			cfg := Config{Shards: 1, Family: family, CompactThreshold: -1}
			check := func(step string, st *Store) {
				t.Helper()
				tag := st.ConfigIDs()[0]
				if fam, label := registry.ParseID(tag); fam != family || label == "" {
					t.Fatalf("%s: tag %q is not a labelled %s ID", step, tag, family)
				}
				if _, id, ok := registry.Rebuild(tag, st.Shard(0).Keys()); !ok || id != tag {
					t.Errorf("%s: Rebuild(%q) = %q, %v; want a fixed point", step, tag, id, ok)
				}
				dir := st.dir
				if dir == "" {
					dir = t.TempDir()
				}
				if err := st.Snapshot(dir); err != nil {
					t.Fatal(err)
				}
				meta := snapshotManifest(t, dir).Shards[0]
				if meta.Codec != tag || meta.Runs[0].Codec != tag {
					t.Errorf("%s: manifest records shard %q, base run %q; store reports %q", step, meta.Codec, meta.Runs[0].Codec, tag)
				}
			}
			// write lands the same batch on every store; compact majors it.
			batch := 0
			write := func(stores ...*Store) {
				for _, k := range inserts[batch*1000 : (batch+1)*1000] {
					for _, st := range stores {
						st.Put(k, uint64(k)+1)
					}
				}
				batch++
				for _, st := range stores {
					if err := st.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}

			ref, err := New(keys, payloads, cfg) // never restarted
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			cold, err := New(keys, payloads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check("New", cold)
			write(ref, cold)
			check("first major", cold)
			dir := t.TempDir()
			if err := cold.Snapshot(dir); err != nil {
				t.Fatal(err)
			}
			cold.Close()
			warm, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer warm.Close()
			check("Open", warm)
			for _, step := range []string{"first warm major", "second warm major"} {
				write(ref, warm)
				check(step, warm)
				if got, want := warm.ConfigIDs()[0], ref.ConfigIDs()[0]; got != want {
					t.Errorf("%s: warm store rebuilt under %q, never-restarted store under %q", step, got, want)
				}
				got, want := warm.Shard(0).Index(), ref.Shard(0).Index()
				if got.Name() != want.Name() || got.SizeBytes() != want.SizeBytes() {
					t.Errorf("%s: warm base index %s %d B, never-restarted %s %d B", step,
						got.Name(), got.SizeBytes(), want.Name(), want.SizeBytes())
				}
			}
		})
	}
}

// TestBuilderForChoosesEveryBaseBuild: a caller's builderFor is asked at
// New and at every major, cold and warm, and what it returns is what
// gets built — a learned family included, which the catalog on its own
// would re-tune to its mid-ladder rung.
func TestBuilderForChoosesEveryBaseBuild(t *testing.T) {
	keys, payloads := testData(t, 6000)
	inserts := dataset.InsertKeys(keys, 2000, 31)
	var asked atomic.Int64
	cfg := Config{Shards: 1, CompactThreshold: -1,
		builderFor: func(_ int, ks []core.Key) (core.Builder, error) {
			asked.Add(1)
			nb, _ := registry.SweepEntry("PGM", "eps=8", ks)
			return nb.Builder, nil
		}}
	major := func(step string, st *Store, batch []core.Key, wantAsked int64) {
		t.Helper()
		for _, k := range batch {
			st.Put(k, 1)
		}
		if err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		if got := asked.Load(); got != wantAsked {
			t.Errorf("%s: builderFor asked %d times, want %d", step, got, wantAsked)
		}
		nb, _ := registry.SweepEntry("PGM", "eps=8", nil)
		want, err := nb.Builder.Build(st.Shard(0).Keys())
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Shard(0).Index(); got.SizeBytes() != want.SizeBytes() {
			t.Errorf("%s: base index is %d B, the caller's eps=8 PGM is %d B", step, got.SizeBytes(), want.SizeBytes())
		}
	}
	st, err := New(keys, payloads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	major("cold major", st, inserts[:1000], 2)
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()
	warm, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	major("warm major", warm, inserts[1000:], 3)
}

// TestRMIStoreShardsKeepKnotLeaves: an RMI store of 8 shards over the
// 2M amzn keys the store workloads serve tunes every shard to 4,096
// knot leaves, so its index is 8 × (4,096 6-byte leaves + a 56-byte
// stage-1 model). A shard that falls back to the 16-byte linear leaf
// fails here, on its tag and on the size.
func TestRMIStoreShardsKeepKnotLeaves(t *testing.T) {
	if testing.Short() {
		t.Skip("2M keys")
	}
	keys := dataset.MustGenerate(dataset.Amzn, 2_000_000, 1)
	st, err := New(keys, dataset.Payloads(len(keys), 1), Config{Shards: 8, Family: "RMI"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, tag := range st.ConfigIDs() {
		if _, label := registry.ParseID(tag); label != "rmi[radix,knot,B=4096]" {
			t.Errorf("shard %d: tag %q, want rmi[radix,knot,B=4096]", i, tag)
		}
	}
	if got, want := st.SizeBytes(), 8*(4096*6+56); got != want {
		t.Errorf("SizeBytes %d, want %d", got, want)
	}
}
