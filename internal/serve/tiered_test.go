package serve

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/registry"
)

// checkOracle verifies the store's full read surface — Get, GetBatch,
// GetBatchFound, Scan/Range order and content, Len — against a map
// oracle over the given key universe (distinct keys).
func checkOracle(t *testing.T, st *Store, oracle map[core.Key]uint64, universe []core.Key, stage string) {
	t.Helper()
	for _, x := range universe {
		wantV, wantOK := oracle[x]
		gotV, gotOK := st.Get(x)
		if gotOK != wantOK || (wantOK && gotV != wantV) {
			t.Fatalf("%s: Get(%d) = (%d,%v), want (%d,%v)", stage, x, gotV, gotOK, wantV, wantOK)
		}
	}
	out := make([]uint64, len(universe))
	found := make([]bool, len(universe))
	n := st.GetBatchFound(universe, out, found)
	if n != len(oracle) {
		t.Fatalf("%s: GetBatchFound found %d, want %d", stage, n, len(oracle))
	}
	for i, x := range universe {
		wantV, wantOK := oracle[x]
		if found[i] != wantOK || (wantOK && out[i] != wantV) {
			t.Fatalf("%s: GetBatchFound key %d -> (%d,%v), want (%d,%v)", stage, x, out[i], found[i], wantV, wantOK)
		}
	}
	if st.Len() != len(oracle) {
		t.Fatalf("%s: Len = %d, want %d", stage, st.Len(), len(oracle))
	}
	ks, vs := rangeOf(st, 0, ^core.Key(0))
	wantN := len(oracle)
	if _, hasMax := oracle[^core.Key(0)]; hasMax {
		wantN--
	}
	if len(ks) != wantN {
		t.Fatalf("%s: Range returned %d pairs, want %d", stage, len(ks), wantN)
	}
	for i := range ks {
		if i > 0 && ks[i] <= ks[i-1] {
			t.Fatalf("%s: Range keys not strictly ascending at %d", stage, i)
		}
		if want := oracle[ks[i]]; vs[i] != want {
			t.Fatalf("%s: Range key %d -> %d, want %d", stage, ks[i], vs[i], want)
		}
	}
}

// TestTieredRunsOracle drives the write path explicitly: a low
// threshold stacks several flushed runs per shard (or, in the
// MaxRuns: 1 row, re-merges the single run every time), deletions land
// as tombstones in runs newer than the base pairs they shadow, and the
// full read surface — Len included, with the largest possible key live
// — is checked against a map oracle while the shards are dirty (runs
// plus a pending delta), with a merge parked mid-flight (runs plus a
// frozen delta plus a fresh active delta on top), after the background
// merges, and after a forced full merge back to one run.
func TestTieredRunsOracle(t *testing.T) {
	for _, row := range []struct {
		family  string
		maxRuns int
		gated   bool // park a merge mid-flight; needs a family without a rebuild hook
	}{
		{"PGM", 4, false},
		{"BTree", 4, true},
		{"BTree", 1, true},
	} {
		t.Run(fmt.Sprintf("%s/MaxRuns=%d", row.family, row.maxRuns), func(t *testing.T) {
			keys, payloads := testData(t, 8000)
			cfg := Config{Shards: 2, Family: row.family, CompactThreshold: 64, MaxRuns: row.maxRuns}
			var g gatedBuilder
			if row.gated {
				cfg, g = gatedConfig(cfg, row.family)
			}
			st, err := New(keys, payloads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			oracle := make(map[core.Key]uint64, len(keys))
			for i, k := range keys {
				oracle[k] = payloads[i]
			}
			inserts := dataset.InsertKeys(keys, 3000, 5)
			maxKey := ^core.Key(0)
			universe := append(append([]core.Key{maxKey}, keys...), inserts...)
			st.Put(maxKey, 99)
			oracle[maxKey] = 99

			// Interleave inserts with deletions of base keys so flushed
			// runs carry tombstones shadowing pairs in older runs.
			for i, k := range inserts {
				st.Put(k, uint64(i)+1)
				oracle[k] = uint64(i) + 1
				if i%3 == 0 {
					victim := keys[(i*7)%len(keys)]
					st.Delete(victim)
					delete(oracle, victim)
				}
			}
			// Every flush stacks a run, but where the run count rests once
			// the compactor is idle depends on whether each shard's last
			// round merged: all shards back at one run is a legal end state.
			waitDrained(t, st)
			if row.maxRuns > 1 {
				if st.Flushes() == 0 {
					t.Fatal("no delta flushes despite tiering enabled and threshold crossed")
				}
			} else if st.Flushes() != 0 || st.MaxRunCount() != 1 {
				t.Fatalf("MaxRuns 1 stacked runs: %d flushes, max run count %d", st.Flushes(), st.MaxRunCount())
			}
			for i := 0; i < st.NumShards(); i++ {
				if n := st.runCount(i); n > st.cfg.MaxRuns+1 {
					t.Fatalf("shard %d holds %d runs, policy bound %d", i, n, st.cfg.MaxRuns)
				}
			}

			// Dirty check: runs plus a fresh pending delta on top, whose
			// tombstones move Len.
			for i := 0; i < 40; i++ {
				k := inserts[i*17%len(inserts)]
				st.Put(k, uint64(i)<<20|3)
				oracle[k] = uint64(i)<<20 | 3
				if i%2 == 0 {
					victim := keys[(i*13+1)%len(keys)]
					st.Delete(victim)
					delete(oracle, victim)
				}
			}
			checkOracle(t, st, oracle, universe, "dirty")

			if row.gated {
				// Frozen check: the dirty delta above is frozen under a
				// parked merge; these writes land in a fresh active delta
				// and must shadow frozen entries, run pairs and each other.
				// First top shard 0's delta up with tombstones (they move
				// Len), staying under the threshold so that the background
				// compactor sleeps on.
				st.WaitCompactions()
				for i := 0; i < 10 && st.shards[0].Load().del.len() < st.cfg.CompactThreshold-1; i++ {
					victim := keys[i*29+3] // low keys: shard 0
					st.Delete(victim)
					delete(oracle, victim)
				}
				release := parkCompact(t, st, g)
				for i := 0; i < 40; i++ {
					k := inserts[i*17%len(inserts)] // the keys the dirty stage wrote
					switch i % 4 {
					case 0:
						st.Delete(k)
						delete(oracle, k)
					case 1:
						st.Put(k, 0) // a live zero payload
						oracle[k] = 0
					}
					victim := keys[(i*11+5)%len(keys)]
					st.Delete(victim)
					delete(oracle, victim)
				}
				st.Delete(maxKey)
				delete(oracle, maxKey)
				checkOracle(t, st, oracle, universe, "frozen in flight")
				st.Put(maxKey, 7)
				oracle[maxKey] = 7
				checkOracle(t, st, oracle, universe, "frozen in flight, max key back")
				release()
				checkOracle(t, st, oracle, universe, "released")
				for i := 0; i < 20; i++ { // dirty again for the stages below
					st.Put(inserts[i*31%len(inserts)], uint64(i)+77)
					oracle[inserts[i*31%len(inserts)]] = uint64(i) + 77
				}
			}

			st.WaitCompactions()
			checkOracle(t, st, oracle, universe, "post-flush")

			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			if st.DeltaLen() != 0 {
				t.Fatalf("DeltaLen = %d after Compact", st.DeltaLen())
			}
			for i := 0; i < st.NumShards(); i++ {
				if n := st.runCount(i); n != 1 {
					t.Fatalf("shard %d holds %d runs after Compact, want 1", i, n)
				}
				if st.Shard(i).Tombs() != nil {
					t.Fatalf("shard %d base carries tombstones after full merge", i)
				}
			}
			checkOracle(t, st, oracle, universe, "post-merge")
		})
	}
}

// TestTombstoneShadowsOlderRuns pins the shadowing precedence across
// run boundaries deterministically: a pair in the base run is deleted
// (tombstone flushed into a newer run), must read as absent through
// every read path, and a still newer re-insert must win again.
func TestTombstoneShadowsOlderRuns(t *testing.T) {
	keys, payloads := testData(t, 4000)
	st, err := New(keys, payloads, Config{
		Shards: 1, Family: "PGM", CompactThreshold: 32, MaxRuns: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	victim := keys[len(keys)/2]

	st.Delete(victim)
	// Pad the delta past the threshold so the tombstone flushes into a
	// tier run above the base.
	pad := dataset.InsertKeys(keys, 64, 9)
	for i, k := range pad {
		st.Put(k, uint64(i)+100)
	}
	waitDrained(t, st)
	if st.runCount(0) < 2 {
		t.Fatalf("run count %d, want >= 2", st.runCount(0))
	}
	// The tombstone was the first of 65 writes at threshold 32, so the
	// first freeze took it; the writes after the last freeze stay pending.
	if _, _, ok := st.shards[0].Load().pending(victim); ok {
		t.Fatal("tombstone still pending: it was not flushed into a tier run")
	}

	if _, ok := st.Get(victim); ok {
		t.Fatal("tombstone in newer run did not shadow base pair (Get)")
	}
	out := make([]uint64, 1)
	fb := make([]bool, 1)
	if n := st.GetBatchFound([]core.Key{victim}, out, fb); n != 0 || fb[0] {
		t.Fatal("tombstone in newer run did not shadow base pair (GetBatchFound)")
	}
	st.Scan(victim, victim+1, func(k core.Key, _ uint64) bool {
		if k == victim {
			t.Fatal("tombstone in newer run did not shadow base pair (Scan)")
		}
		return true
	})

	// A newer re-insert shadows the tombstone in turn.
	st.Put(victim, 4242)
	if v, ok := st.Get(victim); !ok || v != 4242 {
		t.Fatalf("re-insert above tombstone = (%d,%v), want (4242,true)", v, ok)
	}
	for i, k := range pad {
		st.Put(k, uint64(i)+500) // flush the re-insert into its own run
	}
	st.WaitCompactions()
	if v, ok := st.Get(victim); !ok || v != 4242 {
		t.Fatalf("re-insert after flush = (%d,%v), want (4242,true)", v, ok)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if v, ok := st.Get(victim); !ok || v != 4242 {
		t.Fatalf("re-insert after full merge = (%d,%v), want (4242,true)", v, ok)
	}
}

// TestTieredMixedRace is TestMixedRace with the tiering policy active
// and aggressive: concurrent writers, batch readers, and scanners race
// flushes, minor merges, and major merges. Run under -race this is the
// tiered write path's safety test.
func TestTieredMixedRace(t *testing.T) {
	keys, payloads := testData(t, 6000)
	st, err := New(keys, payloads, Config{
		Shards: 4, Family: "PGM", CompactThreshold: 96, MaxRuns: 3, AmpBound: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const writers = 4
	const readers = 3
	inserts := dataset.InsertKeys(keys, 2000, 78)
	var wg sync.WaitGroup
	errs := make(chan string, writers+readers+1)

	for c := 0; c < writers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := c; i < len(inserts); i += writers {
					st.Put(inserts[i], uint64(rep)<<32|uint64(i))
				}
				// Churn deletes and re-inserts on owned insert keys so
				// tombstones cross run boundaries mid-race.
				for i := c; i < len(inserts); i += 4 * writers {
					st.Delete(inserts[i])
					st.Put(inserts[i], uint64(rep)<<32|uint64(i))
				}
			}
		}(c)
	}
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			probes := dataset.Lookups(keys, 512, uint64(c+41))
			out := make([]uint64, len(probes))
			for rep := 0; rep < 30; rep++ {
				if found := st.GetBatch(probes, out); found != len(probes) {
					errs <- "batch lost a base key (never deleted)"
					return
				}
				for _, x := range probes[:8] {
					if _, ok := st.Get(x); !ok {
						errs <- "point read lost a base key"
						return
					}
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rep := 0; rep < 10; rep++ {
			prev := core.Key(0)
			first := true
			st.Scan(0, ^core.Key(0), func(k core.Key, _ uint64) bool {
				if !first && k <= prev {
					errs <- "scan keys not strictly ascending"
					return false
				}
				first, prev = false, k
				return true
			})
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	st.WaitCompactions()
	if st.Flushes() == 0 {
		t.Error("race workload never flushed a tier run")
	}

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for i, k := range inserts {
		want := uint64(2)<<32 | uint64(i)
		if v, ok := st.Get(k); !ok || v != want {
			t.Fatalf("insert %d = (%d,%v), want (%d,true)", k, v, ok, want)
		}
	}
	if st.Len() != len(keys)+len(inserts) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(keys)+len(inserts))
	}
}

// failingBuilder builds through inner except on its failAt-th Build
// (counted from 1 across the store), which announces itself on
// entered, waits for gate, and fails.
type failingBuilder struct {
	inner   core.Builder
	calls   *atomic.Int64
	failAt  int64
	entered chan struct{}
	gate    chan struct{}
}

var errInjectedBuild = errors.New("injected index build failure")

func (b failingBuilder) Build(keys []core.Key) (core.Index, error) {
	if b.calls.Add(1) == b.failAt {
		close(b.entered)
		<-b.gate
		return nil, errInjectedBuild
	}
	return b.inner.Build(keys)
}

func (b failingBuilder) Name() string { return b.inner.Name() }

// TestFailedBackgroundRebuildFoldsBackAndReports: a background round
// whose index rebuild fails must lose nothing and must not stay silent.
// The failing Build is held on a gate until writes have landed on top
// of the frozen delta, so the fold-back merges a non-empty frozen delta
// under a non-empty active one; the writers keep going throughout.
// Afterwards every write reads back against the writers' own record, no
// frozen delta is left behind, PersistErr names the failure, and with
// the builder healthy again the next round drains the delta.
func TestFailedBackgroundRebuildFoldsBackAndReports(t *testing.T) {
	keys, payloads := testData(t, 4000)
	fb := failingBuilder{
		calls: &atomic.Int64{}, failAt: 3, // 1 is New's build, 2 a healthy round
		entered: make(chan struct{}), gate: make(chan struct{}),
	}
	st, err := New(keys, payloads, Config{
		Shards: 1, CompactThreshold: 32, MaxRuns: 1,
		builderFor: func(_ int, ks []core.Key) (core.Builder, error) {
			nb, _ := registry.Builder("RBS", ks) // no rebuild hook: rounds reuse this builder
			fb.inner = nb.Builder
			return fb, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const writers = 2
	inserts := dataset.InsertKeys(keys, 400, 23)
	wrote := make([]map[core.Key]uint64, writers) // key -> last payload; absent once deleted
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Deferred so that a failed assertion cannot leave Close waiting on a
	// parked compactor: the gate opens first, then the writers stop.
	stopWriters := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopWriters()
	release := sync.OnceFunc(func() { close(fb.gate) })
	defer release()
	for c := 0; c < writers; c++ {
		wrote[c] = map[core.Key]uint64{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				k := inserts[(n*writers+c)%len(inserts)] // residue c: this writer's keys only
				if n%5 == 4 {
					st.Delete(k)
					delete(wrote[c], k)
				} else {
					st.Put(k, uint64(n)<<8|uint64(c))
					wrote[c][k] = uint64(n)<<8 | uint64(c)
				}
			}
		}(c)
	}
	select {
	case <-fb.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the compactor never reached its third build")
	}
	// The round is parked with its delta frozen; the writers are not, so
	// the active delta fills.
	deadline := time.Now().Add(10 * time.Second)
	for st.shards[0].Load().del.len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no write landed on top of the frozen delta")
		}
		runtime.Gosched()
	}
	if f := st.shards[0].Load().frozen; f == nil || f.len() == 0 {
		t.Fatal("no frozen delta while the rebuild is parked")
	}
	release()
	stopWriters()
	st.WaitCompactions() // the failed request has ended, whatever followed it too
	if err := st.PersistErr(); !errors.Is(err, errInjectedBuild) {
		t.Fatalf("PersistErr = %v, want the failed rebuild", err)
	}
	// The writers stopped wherever they were; one more write makes sure
	// a delta left over the threshold by the fold-back is queued again.
	st.Put(inserts[0], 7)
	wrote[0][inserts[0]] = 7
	waitDrained(t, st)
	if fb.calls.Load() <= fb.failAt {
		t.Fatal("no round ran after the failed one")
	}

	oracle := make(map[core.Key]uint64, len(keys)+len(inserts))
	for i, k := range keys {
		oracle[k] = payloads[i]
	}
	for _, m := range wrote {
		for k, v := range m {
			oracle[k] = v
		}
	}
	checkOracle(t, st, oracle, append(append([]core.Key{}, keys...), inserts...), "after the failed round")
}

// gatedBuilder wraps a real builder and, while armed, parks every
// Build call on a gate channel (announcing itself on entered first) —
// a deterministic stand-in for a slow learned-index re-tune.
type gatedBuilder struct {
	inner   core.Builder
	armed   *atomic.Bool
	entered chan struct{}
	gate    chan struct{}
}

func (g gatedBuilder) Build(keys []core.Key) (core.Index, error) {
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.inner.Build(keys)
}

func (g gatedBuilder) Name() string { return g.inner.Name() }

// gatedConfig returns cfg with a builderFor that builds family's
// mid-sweep index behind a gate. family must have no compaction rebuild
// hook (a hook re-picks the builder and would step around the gate).
func gatedConfig(cfg Config, family string) (Config, gatedBuilder) {
	g := gatedBuilder{
		armed:   &atomic.Bool{},
		entered: make(chan struct{}, 64),
		gate:    make(chan struct{}),
	}
	cfg.builderFor = func(shard int, ks []core.Key) (core.Builder, error) {
		nb, _ := registry.Builder(family, ks)
		return gatedBuilder{inner: nb.Builder, armed: g.armed, entered: g.entered, gate: g.gate}, nil
	}
	return cfg, g
}

func newGatedStore(t *testing.T, shards, threshold int) (*Store, []core.Key, gatedBuilder) {
	t.Helper()
	keys, payloads := testData(t, 4000)
	cfg, g := gatedConfig(Config{
		Shards:           shards,
		CompactThreshold: threshold,
		MaxRuns:          1, // classic mode: every compaction rebuilds through the builder
	}, "RBS")
	st, err := New(keys, payloads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, keys, g
}

// parkCompact parks a forced merge of shard 0 mid-flight: it waits out
// the background compactor (the caller issues no reads or writes
// meanwhile, so nothing new starts), makes sure shard 0 has a pending
// write to freeze, arms the gate and starts Compact, and returns once
// shard 0's rebuild is parked on the gate — its delta frozen, its merge
// in flight. It stays so until release, which lets the merge through
// and waits for Compact to finish. The gate opens once; park at most
// once per store.
func parkCompact(t *testing.T, st *Store, g gatedBuilder) (release func()) {
	t.Helper()
	st.WaitCompactions()
	if st.shards[0].Load().del.len() == 0 {
		// Rewrite a key's current state: a pending entry, no change.
		if v, ok := st.Get(st.seps[0]); ok {
			st.Put(st.seps[0], v)
		} else {
			st.Delete(st.seps[0])
		}
	}
	g.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- st.Compact() }()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("forced Compact never reached the index rebuild")
	}
	if f := st.shards[0].Load().frozen; f == nil || f.len() == 0 {
		t.Fatal("shard 0 holds no frozen delta while its merge is parked")
	}
	return func() {
		t.Helper()
		g.armed.Store(false)
		close(g.gate)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// waitGoroutineState polls the full goroutine dump until some
// goroutine whose stack contains fn is in the wanted state, returning
// its header line; it fails the test on timeout.
func waitGoroutineState(t *testing.T, fn, want string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	buf := make([]byte, 1<<20)
	var last string
	for time.Now().Before(deadline) {
		n := runtime.Stack(buf, true)
		for _, blk := range bytes.Split(buf[:n], []byte("\n\n")) {
			if !bytes.Contains(blk, []byte(fn)) {
				continue
			}
			header := string(blk[:bytes.IndexByte(blk, '\n')])
			last = header
			if bytes.Contains([]byte(header), []byte(want)) {
				return header
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no goroutine in %s reached state %q (last seen: %q)", fn, want, last)
	return ""
}

// TestWaitCompactionsParksNotSpins: a WaitCompactions caller blocked
// behind a slow index rebuild must be parked on a condition variable —
// goroutine state [sync.Cond.Wait] — not burning a core in a
// Gosched/poll loop (state [runnable]). The rebuild is held on a gate
// so the window is arbitrarily wide and the check deterministic.
func TestWaitCompactionsParksNotSpins(t *testing.T) {
	st, keys, g := newGatedStore(t, 1, 8)
	defer st.Close()

	g.armed.Store(true)
	for i := 0; i < 8; i++ {
		st.Put(keys[i*13], uint64(i)+1)
	}
	<-g.entered // the background rebuild is now parked on the gate

	done := make(chan struct{})
	go func() {
		st.WaitCompactions()
		close(done)
	}()
	waitGoroutineState(t, "WaitCompactions", "[sync.Cond.Wait")
	select {
	case <-done:
		t.Fatal("WaitCompactions returned while a compaction was still in flight")
	default:
	}

	g.armed.Store(false)
	close(g.gate)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitCompactions never woke after the compaction finished")
	}
	if st.DeltaLen() != 0 {
		t.Fatalf("delta not drained: %d", st.DeltaLen())
	}
}

// TestCompactionLivenessWhenWritesStop: compaction requests issued
// while the compactor is busy must survive with no further writes to
// re-fire them. The old channel-based queue dropped the request on a
// full channel and cleared the queued flag, so a shard whose writes
// stopped right after crossing the threshold was never compacted.
func TestCompactionLivenessWhenWritesStop(t *testing.T) {
	st, keys, g := newGatedStore(t, 4, 8)
	defer st.Close()

	// Park the compactor inside shard 0's rebuild.
	g.armed.Store(true)
	st.Put(keys[0], 1)
	for i := 0; i < 8; i++ {
		st.Put(keys[i*3+1], uint64(i)+1) // shard 0 spans the low keys
	}
	<-g.entered

	// Push the other shards past the threshold while the compactor is
	// busy, then stop writing entirely.
	for sh := 1; sh < st.NumShards(); sh++ {
		lo := st.seps[sh]
		for i := 0; i < 9; i++ {
			st.Put(lo+core.Key(i), uint64(sh)<<16|uint64(i))
		}
	}

	g.armed.Store(false)
	close(g.gate)
	st.WaitCompactions()
	if got := st.DeltaLen(); got != 0 {
		t.Fatalf("deltas still pending after WaitCompactions with no further writes: %d", got)
	}
	if st.Compactions() < uint64(st.NumShards()) {
		t.Fatalf("only %d compactions for %d over-threshold shards", st.Compactions(), st.NumShards())
	}
}

// TestCloseDrainsCompactionQueue: requests accepted before Close must
// complete (the compactor drains its queue before exiting), and
// requests after Close are refused rather than accepted-and-dropped.
func TestCloseDrainsCompactionQueue(t *testing.T) {
	st, keys, g := newGatedStore(t, 4, 8)

	g.armed.Store(true)
	for i := 0; i < 9; i++ {
		st.Put(keys[i*3], uint64(i)+1)
	}
	<-g.entered
	for sh := 1; sh < st.NumShards(); sh++ {
		lo := st.seps[sh]
		for i := 0; i < 9; i++ {
			st.Put(lo+core.Key(i), uint64(sh)<<16|uint64(i))
		}
	}

	closed := make(chan struct{})
	go func() {
		st.Close()
		close(closed)
	}()
	// Close must block on the in-flight compaction, not abandon it.
	select {
	case <-closed:
		t.Fatal("Close returned while a compaction was parked on the gate")
	case <-time.After(50 * time.Millisecond):
	}
	g.armed.Store(false)
	close(g.gate)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned after the gate opened")
	}
	if got := st.DeltaLen(); got != 0 {
		t.Fatalf("queued compactions abandoned by Close: %d pending", got)
	}
}

// TestMinorMergeChosenWhenMajorExpensive: with no reads to repay it, a
// major's rewrite and re-fit of a 16,000-key PGM shard outprices a
// minor over a few hundred tier-run keys, so a run-count trigger must
// consolidate the upper tiers only — base run untouched,
// tombstones preserved inside the merged tier run — and reads stay
// correct through and after the minor merge.
func TestMinorMergeChosenWhenMajorExpensive(t *testing.T) {
	keys, payloads := testData(t, 16000)
	st, err := New(keys, payloads, Config{
		Shards: 1, Family: "PGM", CompactThreshold: 32, MaxRuns: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	oracle := make(map[core.Key]uint64, len(keys))
	for i, k := range keys {
		oracle[k] = payloads[i]
	}
	base := st.Shard(0)
	ins := dataset.InsertKeys(keys, 200, 21)
	for i, k := range ins {
		st.Put(k, uint64(i)+1)
		oracle[k] = uint64(i) + 1
		if i%5 == 0 {
			victim := keys[(i*13)%len(keys)]
			st.Delete(victim)
			delete(oracle, victim)
		}
		if i%33 == 0 {
			st.WaitCompactions() // pace the flushes so runs stack one by one
		}
	}
	st.WaitCompactions()
	if st.MinorMerges() == 0 {
		t.Fatalf("no minor merge despite prohibitive major pricing (flushes=%d majors=%d runs=%d)",
			st.Flushes(), st.MajorMerges(), st.runCount(0))
	}
	if st.MajorMerges() != 0 {
		t.Fatalf("%d major merges despite prohibitive pricing", st.MajorMerges())
	}
	if st.Shard(0) != base {
		t.Fatal("minor merges rewrote the base run")
	}
	universe := append(append([]core.Key{}, keys...), ins...)
	checkOracle(t, st, oracle, universe, "post-minor-merge")
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, st, oracle, universe, "post-full-merge")
}

// TestReadAmpTriggersMerge: a tiered shard whose writes stopped but
// whose reads keep paying multi-run probes past the amplification
// bound must get merged from the read path alone.
func TestReadAmpTriggersMerge(t *testing.T) {
	keys, payloads := testData(t, 16000)
	st, err := New(keys, payloads, Config{
		Shards: 1, Family: "PGM", CompactThreshold: 32, MaxRuns: 8, AmpBound: 1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Stack a few tier runs, below the run-count bound.
	ins := dataset.InsertKeys(keys, 100, 31)
	for i, k := range ins {
		st.Put(k, uint64(i)+1)
		if i%33 == 0 {
			st.WaitCompactions()
		}
	}
	st.WaitCompactions()
	if st.runCount(0) < 3 {
		t.Fatalf("run count %d, want >= 3", st.runCount(0))
	}

	// Read-only from here: base-resolving keys pay one probe per run,
	// so measured amplification sits near the run count, far over 1.2.
	deadline := time.Now().Add(30 * time.Second)
	for st.runCount(0) >= 3 {
		for i := 0; i < 2048; i++ {
			st.Get(keys[(i*37)%len(keys)])
		}
		st.WaitCompactions()
		if time.Now().After(deadline) {
			t.Fatalf("read amplification %.2f over bound never triggered a merge (runs=%d)",
				st.ReadAmp(), st.runCount(0))
		}
	}
	if st.ReadAmp() <= 1 {
		t.Fatalf("multi-run reads not accounted: ReadAmp = %.2f", st.ReadAmp())
	}
	for i, k := range ins {
		if v, ok := st.Get(k); !ok || v != uint64(i)+1 {
			t.Fatalf("insert %d = (%d,%v) after amp merge", k, v, ok)
		}
	}
}

// TestSingleRunReadsNotAccounted: the run-probe counters (and the
// "run probes >= multirun ops" law metriclint holds them to) count
// multi-run reads only. Reads of a compacted store report a probe per
// key like any other, and must still leave both counters at zero.
func TestSingleRunReadsNotAccounted(t *testing.T) {
	keys, payloads := testData(t, 8000)
	reg := obs.NewRegistry()
	st, err := New(keys, payloads, Config{Shards: 4, Family: "PGM", CompactThreshold: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Put(keys[0]+1, 5)
	st.Delete(keys[1])
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	probes := dataset.Lookups(keys, 256, 13)
	out := make([]uint64, len(probes))
	found := make([]bool, len(probes))
	for i := 0; i < 10000; i++ {
		st.Get(probes[i%len(probes)])
		if i%100 == 0 {
			st.GetBatch(probes, out)
			st.GetBatchFound(probes, out, found)
		}
	}
	for _, name := range []string{"sosd_store_run_probes_total", "sosd_store_multirun_ops_total"} {
		if v, ok := reg.Value(name); !ok || v != 0 {
			t.Errorf("%s = %v (registered %v) after single-run reads only, want 0", name, v, ok)
		}
	}
	if amp := st.ReadAmp(); amp != 1 {
		t.Errorf("ReadAmp = %v on a store that never served a multi-run read, want 1", amp)
	}
}
