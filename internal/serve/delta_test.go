package serve

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/persist"
)

// testRNG is a tiny splitmix64 for deterministic op sequences.
type testRNG struct{ s uint64 }

func (r *testRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *testRNG) intn(n int) int { return int(r.next() % uint64(n)) }

func TestDeltaWith(t *testing.T) {
	d := emptyDelta
	d = d.with(50, 500, false)
	d = d.with(10, 100, false)
	d = d.with(90, 900, false)
	d = d.with(50, 501, false) // update
	d = d.with(10, 0, true)    // tombstone
	if d.len() != 3 {
		t.Fatalf("len = %d, want 3", d.len())
	}
	if !core.IsSorted(d.keys) {
		t.Fatalf("delta keys not sorted: %v", d.keys)
	}
	if v, tomb, ok := d.get(50); !ok || tomb || v != 501 {
		t.Fatalf("get(50) = (%d,%v,%v), want (501,false,true)", v, tomb, ok)
	}
	if _, tomb, ok := d.get(10); !ok || !tomb {
		t.Fatalf("get(10): want tombstone")
	}
	if _, _, ok := d.get(60); ok {
		t.Fatalf("get(60): want absent")
	}
	// Copy-on-write: the older snapshot must be unaffected.
	old := d
	_ = d.with(50, 999, false)
	if v, _, _ := old.get(50); v != 501 {
		t.Fatalf("with mutated the receiver: get(50) = %d", v)
	}
}

// TestDeltaApplyMatchesSequentialWith holds the batch fold to the
// op-at-a-time oracle: apply(ops) must equal folding the same ops with
// `with`, one by one, in order — for an empty batch, a batch of one
// (the `with` arm), small batches and large ones (the sort-and-overlay
// arm), with keys repeated inside the batch in both orders
// (tombstone-then-upsert, upsert-then-tombstone) and keys the delta
// already holds. The receiver must come through unchanged.
func TestDeltaApplyMatchesSequentialWith(t *testing.T) {
	rng := testRNG{s: 11}
	for _, size := range []int{0, 1, 2, 3, 17, 4096} {
		for trial := 0; trial < 8; trial++ {
			// A pool about the size of the batch: repeats inside it are
			// common, and so are hits on the keys seeded below.
			pool := uint64(size + 4)
			base := emptyDelta
			for i := 0; i < trial*3; i++ {
				base = base.with(core.Key(rng.next()%pool), rng.next(), rng.intn(3) == 0)
			}
			before := delta{keys: slices.Clone(base.keys), vals: slices.Clone(base.vals), tombs: slices.Clone(base.tombs)}
			ops := make([]persist.Op, size)
			for i := range ops {
				ops[i] = persist.Op{Key: core.Key(rng.next() % pool), Val: rng.next(), Tomb: rng.intn(3) == 0}
			}
			if size >= 2 { // both orders on one key, whatever the draw
				ops[size-2] = persist.Op{Key: 1, Tomb: true}
				ops[size-1] = persist.Op{Key: 1, Val: 41}
			}
			if size >= 17 {
				ops[5] = persist.Op{Key: 2, Val: 43}
				ops[9] = persist.Op{Key: 2, Tomb: true}
			}
			want := base
			for _, op := range ops {
				want = want.with(op.Key, op.Val, op.Tomb)
			}
			got := base.apply(ops)
			if !slices.Equal(got.keys, want.keys) || !slices.Equal(got.vals, want.vals) || !slices.Equal(got.tombs, want.tombs) {
				t.Fatalf("size %d trial %d: apply differs from sequential with\n got  %v %v %v\n want %v %v %v",
					size, trial, got.keys, got.vals, got.tombs, want.keys, want.vals, want.tombs)
			}
			if !slices.Equal(base.keys, before.keys) || !slices.Equal(base.vals, before.vals) || !slices.Equal(base.tombs, before.tombs) {
				t.Fatalf("size %d trial %d: apply mutated its receiver", size, trial)
			}
		}
	}
}

// TestMutableOracle runs a randomized insert/update/delete/get
// sequence against a map oracle, with a small compaction threshold so
// background compactions fire mid-sequence, then checks the full store
// content (Get, GetBatch, Len, Range) before and after a forced
// Compact. The write path must be invisible to correctness regardless
// of compaction timing.
func TestMutableOracle(t *testing.T) {
	for _, family := range []string{"PGM", "BTree", "RMI"} {
		t.Run(family, func(t *testing.T) {
			all := dataset.MustGenerate(dataset.Amzn, 8000, 23)
			// Build over the even-indexed half; odds are the insert pool.
			var baseKeys []core.Key
			var basePayloads []uint64
			oracle := make(map[core.Key]uint64)
			for i := 0; i < len(all); i += 2 {
				baseKeys = append(baseKeys, all[i])
				basePayloads = append(basePayloads, uint64(i)+1)
				oracle[all[i]] = uint64(i) + 1
			}
			st, err := New(baseKeys, basePayloads, Config{
				Shards: 4, Family: family, CompactThreshold: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			// Boundary keys exercise routing below the first separator
			// and at the top of the key space.
			extremes := []core.Key{0, 1, baseKeys[0] - 1, ^core.Key(0)}
			universe := append(append([]core.Key{}, all...), extremes...)

			r := &testRNG{s: 99}
			for op := 0; op < 6000; op++ {
				x := universe[r.intn(len(universe))]
				switch c := r.intn(10); {
				case c < 5: // get
					wantV, wantOK := oracle[x]
					gotV, gotOK := st.Get(x)
					if gotOK != wantOK || (wantOK && gotV != wantV) {
						t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", op, x, gotV, gotOK, wantV, wantOK)
					}
				case c < 8: // put
					v := uint64(op)<<8 | 7
					st.Put(x, v)
					oracle[x] = v
				default: // delete
					st.Delete(x)
					delete(oracle, x)
				}
			}

			checkAll := func(stage string) {
				t.Helper()
				for _, x := range universe {
					wantV, wantOK := oracle[x]
					gotV, gotOK := st.Get(x)
					if gotOK != wantOK || (wantOK && gotV != wantV) {
						t.Fatalf("%s: Get(%d) = (%d,%v), want (%d,%v)", stage, x, gotV, gotOK, wantV, wantOK)
					}
				}
				out := make([]uint64, len(universe))
				found := st.GetBatch(universe, out)
				for i, x := range universe {
					wantV, wantOK := oracle[x]
					if wantOK && out[i] != wantV {
						t.Fatalf("%s: GetBatch key %d -> %d, want %d", stage, x, out[i], wantV)
					}
					if !wantOK && out[i] != 0 {
						t.Fatalf("%s: GetBatch absent key %d -> %d, want 0", stage, x, out[i])
					}
				}
				// Universe keys are distinct, so the oracle size is the
				// expected found count.
				if found != len(oracle) {
					t.Fatalf("%s: GetBatch found %d, want %d", stage, found, len(oracle))
				}
				if st.Len() != len(oracle) {
					t.Fatalf("%s: Len = %d, want %d", stage, st.Len(), len(oracle))
				}
				// Range over everything below the max key, plus a point
				// check for the max key itself (Range's hi is exclusive).
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
						t.Fatalf("%s: Range keys not strictly ascending at %d: %d <= %d", stage, i, ks[i], ks[i-1])
					}
					if want := oracle[ks[i]]; vs[i] != want {
						t.Fatalf("%s: Range key %d -> %d, want %d", stage, ks[i], vs[i], want)
					}
				}
			}

			checkAll("pre-compact")
			st.WaitCompactions()
			checkAll("post-background-compact")
			if st.Compactions() == 0 {
				t.Error("no background compactions fired despite threshold 64")
			}
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			if st.DeltaLen() != 0 {
				t.Fatalf("DeltaLen = %d after Compact, want 0", st.DeltaLen())
			}
			checkAll("post-compact")
		})
	}
}

// TestScanEarlyStop covers Scan's visit-false contract and windowed
// ranges crossing shard boundaries with pending writes.
func TestScanEarlyStop(t *testing.T) {
	keys, payloads := testData(t, 4000)
	st, err := New(keys, payloads, Config{Shards: 4, Family: "BTree", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Delete one key and insert one key in the middle of the range.
	mid := keys[len(keys)/2]
	st.Delete(mid)
	ins := mid + 1
	for core.LowerBound(keys, ins) < len(keys) && keys[core.LowerBound(keys, ins)] == ins {
		ins++
	}
	st.Put(ins, 424242)

	n := st.Scan(0, ^core.Key(0), func(core.Key, uint64) bool { return false })
	if n != 1 {
		t.Fatalf("early-stop scan visited %d, want 1", n)
	}
	var got []core.Key
	st.Scan(mid, ins+1, func(k core.Key, v uint64) bool {
		got = append(got, k)
		return true
	})
	for _, k := range got {
		if k == mid {
			t.Fatalf("deleted key %d visible in scan", mid)
		}
	}
	found := false
	for _, k := range got {
		if k == ins {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted key %d missing from scan window %v", ins, got)
	}
}

// TestDeleteEverything drains a store shard by shard down to the empty
// table path.
func TestDeleteEverything(t *testing.T) {
	keys, payloads := testData(t, 600)
	st, err := New(keys, payloads, Config{Shards: 3, Family: "PGM", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, k := range keys {
		st.Delete(k)
	}
	if st.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything, want 0", st.Len())
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 || st.DeltaLen() != 0 {
		t.Fatalf("after compact: Len=%d DeltaLen=%d, want 0/0", st.Len(), st.DeltaLen())
	}
	if _, ok := st.Get(keys[0]); ok {
		t.Fatal("deleted key still readable after compact")
	}
	// The store must accept new writes on empty shards.
	st.Put(keys[42], 7)
	if v, ok := st.Get(keys[42]); !ok || v != 7 {
		t.Fatalf("Get after reinsert = (%d,%v), want (7,true)", v, ok)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if v, ok := st.Get(keys[42]); !ok || v != 7 {
		t.Fatalf("Get after reinsert+compact = (%d,%v), want (7,true)", v, ok)
	}
}

// waitDrained waits out the background compactor and asserts what the
// write path guarantees once it is idle and no writer is running: no
// shard has a compaction in flight and every shard's active delta is
// below the threshold. A remainder below the threshold legally stays
// pending, on each shard separately, so DeltaLen — the sum over shards
// — is not bounded by it and is zero only by an accident of timing.
func waitDrained(t *testing.T, st *Store) {
	t.Helper()
	st.WaitCompactions()
	for i := range st.shards {
		s := st.shards[i].Load()
		if s.frozen != nil || s.del.len() >= st.cfg.CompactThreshold {
			t.Fatalf("shard %d not drained with the compactor idle: %d pending at threshold %d, frozen=%v",
				i, s.del.len(), st.cfg.CompactThreshold, s.frozen != nil)
		}
	}
}

// TestCompactionTrigger: crossing the threshold compacts in the
// background without any manual nudge.
func TestCompactionTrigger(t *testing.T) {
	keys, payloads := testData(t, 4000)
	st, err := New(keys, payloads, Config{Shards: 2, Family: "PGM", CompactThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ins := dataset.InsertKeys(keys, 1000, 3)
	for i, k := range ins {
		st.Put(k, uint64(i)+1)
	}
	waitDrained(t, st)
	if st.Compactions() == 0 {
		t.Fatal("threshold crossed on both shards but nothing compacted")
	}
	// Every insert must have survived the merges.
	for i, k := range ins {
		if v, ok := st.Get(k); !ok || v != uint64(i)+1 {
			t.Fatalf("insert %d lost after compaction: (%d,%v)", k, v, ok)
		}
	}
	if st.Len() != len(keys)+len(ins) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(keys)+len(ins))
	}
}

// TestMixedRace hammers one store from concurrent writers, batch
// readers, scanners, and the background compactor; run under -race
// this is the write path's safety test. Writers own disjoint key
// slices so final values are deterministic; base keys are never
// deleted, so readers can assert presence throughout.
func TestMixedRace(t *testing.T) {
	keys, payloads := testData(t, 6000)
	st, err := New(keys, payloads, Config{Shards: 4, Family: "PGM", CompactThreshold: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const writers = 4
	const readers = 3
	inserts := dataset.InsertKeys(keys, 2000, 77)
	var wg sync.WaitGroup
	errs := make(chan string, writers+readers+1)

	for c := 0; c < writers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Writer c owns universe positions ≡ c (mod writers).
			for rep := 0; rep < 3; rep++ {
				for i := c; i < len(inserts); i += writers {
					st.Put(inserts[i], uint64(rep)<<32|uint64(i))
				}
				for i := c; i < len(keys); i += 4 * writers {
					st.Put(keys[i], uint64(rep)<<32|uint64(i)|1<<63)
				}
			}
		}(c)
	}
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			probes := dataset.Lookups(keys, 512, uint64(c+31))
			out := make([]uint64, len(probes))
			for rep := 0; rep < 30; rep++ {
				found := st.GetBatch(probes, out)
				if found != len(probes) {
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

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// Deterministic final state: last rep wins for every owned key.
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
