package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
)

// TestExportWorkersAgreeWithOracle exports a store mid-stream with one
// export worker and with four, writers and compactions running. A write
// hook keeps a map oracle per shard under the shard's write lock and
// the capture callback copies it under the same lock, so the oracle is
// exact, not approximate: the directory must open to precisely the
// state the callbacks saw, whatever the number of workers and whatever
// order the shards finished in. The completion callback must fire once
// per shard, with that shard's files on disk and no manifest yet.
func TestExportWorkersAgreeWithOracle(t *testing.T) {
	keys, payloads := testData(t, 8000)
	for _, workers := range []int{1, 4} {
		const shards = 8
		live := make([]map[core.Key]uint64, shards) // guarded by each shard's write lock
		for i := range live {
			live[i] = map[core.Key]uint64{}
		}
		st, err := New(keys, payloads, Config{
			Shards: shards, Workers: workers, Family: "RBS", CompactThreshold: 96,
			WriteHook: func(shard int, op persist.Op) {
				if op.Tomb {
					delete(live[shard], op.Key)
				} else {
					live[shard][op.Key] = op.Val
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			live[st.shardOf(k)][k] = payloads[i]
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		for wid := 0; wid < 3; wid++ {
			wg.Add(1)
			go func(wid int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(wid) + 1))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if k := keys[rng.Intn(len(keys))]; rng.Intn(3) == 0 {
						st.Delete(k)
					} else {
						st.Put(k, uint64(wid)<<32|uint64(i))
					}
				}
			}(wid)
		}

		dir := filepath.Join(t.TempDir(), "export")
		var mu sync.Mutex
		captured := map[core.Key]uint64{}
		captures, completions := make([]int, shards), 0
		err = st.SnapshotWith(dir,
			func(i int) {
				mu.Lock()
				defer mu.Unlock()
				captures[i]++
				for k, v := range live[i] {
					captured[k] = v
				}
			},
			func(sm persist.ShardMeta) error {
				mu.Lock()
				defer mu.Unlock()
				completions++
				for _, name := range []string{sm.WAL, sm.Runs[0].File} {
					if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
						t.Errorf("workers=%d: shard reported complete without %s: %v", workers, name, err)
					}
				}
				if _, err := os.Stat(filepath.Join(dir, persist.ManifestName)); err == nil {
					t.Errorf("workers=%d: manifest committed before every shard completed", workers)
				}
				return nil
			})
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("workers=%d: export: %v", workers, err)
		}
		for i, n := range captures {
			if n != 1 {
				t.Errorf("workers=%d: shard %d captured %d times", workers, i, n)
			}
		}
		if completions != shards {
			t.Errorf("workers=%d: %d completion callbacks, want %d", workers, completions, shards)
		}
		st.Close()

		opened, err := Open(dir, Config{})
		if err != nil {
			t.Fatalf("workers=%d: open: %v", workers, err)
		}
		assertStateEqual(t, opened, captured, "export")
		opened.Close()
	}
}

// TestExportFailingShardCommitsNothing blocks one shard's run file (a
// directory squats on its name, so the rename into place fails) while
// the other shards export on four workers: the error surfaces, the
// failed shard is never reported complete, and the directory is left
// without a manifest — nothing for Open to mistake for a snapshot.
func TestExportFailingShardCommitsNothing(t *testing.T) {
	keys, payloads := testData(t, 4000)
	st, err := New(keys, payloads, Config{Shards: 8, Workers: 4, Family: "PGM"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	dir := t.TempDir()
	const bad = 5
	if err := os.MkdirAll(filepath.Join(dir, runFileName(bad, 1, 0), "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var completed []persist.ShardMeta
	err = st.SnapshotWith(dir, nil, func(sm persist.ShardMeta) error {
		mu.Lock()
		completed = append(completed, sm)
		mu.Unlock()
		return nil
	})
	if err == nil {
		t.Fatal("export over a blocked shard file succeeded")
	}
	for _, sm := range completed {
		if sm.Sep == st.seps[bad] {
			t.Errorf("shard %d reported complete", bad)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, persist.ManifestName)); !os.IsNotExist(err) {
		t.Errorf("manifest after a failed export: stat err = %v", err)
	}
	if _, err := Open(dir, Config{}); err == nil {
		t.Error("a failed export opens as a store")
	}
	if err := st.Snapshot(dir); err == nil {
		t.Error("plain Snapshot over the same blocked file succeeded")
	}
}

// TestExportStopsAtFirstError: once a shard has failed — its files, or
// the caller's completion callback — no further shard is started: on one
// worker the shards behind the failure leave no file in the directory.
func TestExportStopsAtFirstError(t *testing.T) {
	keys, payloads := testData(t, 4000)
	st, err := New(keys, payloads, Config{Shards: 8, Workers: 1, Family: "PGM"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const bad = 2
	errCallback := errors.New("callback refuses")
	for name, setup := range map[string]func(dir string) func(persist.ShardMeta) error{
		"shard": func(dir string) func(persist.ShardMeta) error {
			if err := os.MkdirAll(filepath.Join(dir, runFileName(bad, 1, 0), "squatter"), 0o755); err != nil {
				t.Fatal(err)
			}
			return nil
		},
		"callback": func(string) func(persist.ShardMeta) error {
			return func(sm persist.ShardMeta) error {
				if sm.Sep == st.seps[bad] {
					return errCallback
				}
				return nil
			}
		},
	} {
		dir := t.TempDir()
		err := st.SnapshotWith(dir, nil, setup(dir))
		if err == nil || (name == "callback" && !errors.Is(err, errCallback)) {
			t.Fatalf("%s: export err = %v", name, err)
		}
		for i := bad + 1; i < 8; i++ {
			if m, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%04d-*", i))); len(m) != 0 {
				t.Errorf("%s: shard %d was exported after shard %d failed: %v", name, i, bad, m)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, persist.ManifestName)); !os.IsNotExist(err) {
			t.Errorf("%s: manifest after a failed export: stat err = %v", name, err)
		}
	}
}
