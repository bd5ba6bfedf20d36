package serve

import (
	"sort"
	"testing"

	"repro/internal/core"
)

// rangeOf collects the store's live pairs with key in [lo, hi) through
// Scan, merged across shards and pending writes.
func rangeOf(st *Store, lo, hi core.Key) ([]core.Key, []uint64) {
	var ks []core.Key
	var vs []uint64
	st.Scan(lo, hi, func(k core.Key, v uint64) bool {
		ks = append(ks, k)
		vs = append(vs, v)
		return true
	})
	return ks, vs
}

// TestScanAcrossShardBoundaries is the satellite coverage for the
// merged-scan path at shard split points: fresh keys are inserted into
// the uncompacted deltas on *both* sides of every shard edge and base
// keys adjacent to each edge (including the separator itself) are
// tombstoned, then Scan and Range are checked against a map oracle for
// windows straddling, starting at, and ending at each separator —
// before and after compaction.
func TestScanAcrossShardBoundaries(t *testing.T) {
	// Controlled key set: multiples of 10, so ±1 neighbors are free for
	// boundary-straddling inserts.
	const n = 400
	keys := make([]core.Key, n)
	payloads := make([]uint64, n)
	for i := range keys {
		keys[i] = core.Key(1000 + 10*i)
		payloads[i] = uint64(i) + 1
	}
	st, err := New(keys, payloads, Config{
		Shards: 4, Family: "BTree", CompactThreshold: -1, // keep deltas uncompacted
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumShards() < 4 {
		t.Fatalf("only %d shards", st.NumShards())
	}

	oracle := make(map[core.Key]uint64, n)
	for i, k := range keys {
		oracle[k] = payloads[i]
	}

	// Separators of shards 1..: the first key of each shard's base run.
	var seps []core.Key
	for i := 1; i < st.NumShards(); i++ {
		seps = append(seps, st.Shard(i).Keys()[0])
	}

	apply := func(put bool, k core.Key, v uint64) {
		if put {
			st.Put(k, v)
			oracle[k] = v
		} else {
			st.Delete(k)
			delete(oracle, k)
		}
	}
	for _, sep := range seps {
		apply(true, sep-1, uint64(sep))   // fresh key just below the edge (last key of the left shard's range)
		apply(true, sep+1, uint64(sep)+1) // fresh key just above the edge
		apply(false, sep, 0)              // tombstone the separator key itself
		apply(false, sep-10, 0)           // tombstone the last base key left of the edge
		apply(true, sep+10, 7777)         // update a base key right of the edge
	}
	if st.DeltaLen() == 0 {
		t.Fatal("deltas unexpectedly empty; boundary writes must be uncompacted")
	}

	check := func(stage string) {
		t.Helper()
		wantAll := make([]core.Key, 0, len(oracle))
		for k := range oracle {
			wantAll = append(wantAll, k)
		}
		sort.Slice(wantAll, func(i, j int) bool { return wantAll[i] < wantAll[j] })

		windows := [][2]core.Key{
			{0, ^core.Key(0)}, // everything
			{keys[0], keys[n-1] + 1},
		}
		for _, sep := range seps {
			windows = append(windows,
				[2]core.Key{sep - 15, sep + 15}, // straddles the edge
				[2]core.Key{sep, sep + 25},      // starts exactly at the separator
				[2]core.Key{sep - 25, sep},      // ends exactly at the separator
				[2]core.Key{sep - 1, sep + 2},   // just the straddling inserts (sep itself tombstoned)
				[2]core.Key{sep, sep},           // empty window at the edge
			)
		}
		for _, win := range windows {
			lo, hi := win[0], win[1]
			var wantK []core.Key
			var wantV []uint64
			for _, k := range wantAll {
				if k >= lo && k < hi {
					wantK = append(wantK, k)
					wantV = append(wantV, oracle[k])
				}
			}
			gotK, gotV := rangeOf(st, lo, hi)
			if len(gotK) != len(wantK) {
				t.Fatalf("%s: Range(%d,%d) returned %d pairs, want %d", stage, lo, hi, len(gotK), len(wantK))
			}
			for i := range gotK {
				if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
					t.Fatalf("%s: Range(%d,%d)[%d] = (%d,%d), want (%d,%d)",
						stage, lo, hi, i, gotK[i], gotV[i], wantK[i], wantV[i])
				}
			}
			// Scan must agree, visit in ascending order, and count visits.
			var scanned []core.Key
			prev := core.Key(0)
			cnt := st.Scan(lo, hi, func(k core.Key, v uint64) bool {
				if len(scanned) > 0 && k <= prev {
					t.Fatalf("%s: Scan(%d,%d) out of order: %d after %d", stage, lo, hi, k, prev)
				}
				prev = k
				scanned = append(scanned, k)
				return true
			})
			if cnt != len(wantK) || len(scanned) != len(wantK) {
				t.Fatalf("%s: Scan(%d,%d) visited %d (returned %d), want %d",
					stage, lo, hi, len(scanned), cnt, len(wantK))
			}
		}

		// Early stop mid-window across a boundary.
		if len(seps) > 0 && len(wantAll) > 3 {
			sep := seps[0]
			stopAfter := 3
			got := st.Scan(sep-15, ^core.Key(0), func(core.Key, uint64) bool {
				stopAfter--
				return stopAfter > 0
			})
			if got != 3 {
				t.Fatalf("%s: early-stopped Scan visited %d, want 3", stage, got)
			}
		}
	}

	check("uncompacted")
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.DeltaLen() != 0 {
		t.Fatalf("deltas remain after Compact: %d", st.DeltaLen())
	}
	check("compacted")

	// Len must agree with the oracle throughout.
	if st.Len() != len(oracle) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(oracle))
	}
}

// TestScanBoundaryTombstoneShadowing pins the subtle case: a key
// tombstoned in the active delta of one shard while the *same window*
// spans a neighboring shard whose delta inserts it back-to-back — the
// merged stream must show exactly the live keys, once each.
func TestScanBoundaryTombstoneShadowing(t *testing.T) {
	const n = 100
	keys := make([]core.Key, n)
	payloads := make([]uint64, n)
	for i := range keys {
		keys[i] = core.Key(100 + 10*i)
		payloads[i] = uint64(i) + 1
	}
	st, err := New(keys, payloads, Config{Shards: 2, Family: "PGM", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NumShards() != 2 {
		t.Skipf("got %d shards, need 2", st.NumShards())
	}
	sep := st.Shard(1).Keys()[0]

	// Delete then re-insert the separator key (lands in shard 1's
	// delta twice, final state live with a new value), and tombstone
	// the key just left of the edge in shard 0's delta.
	st.Delete(sep)
	st.Put(sep, 424242)
	st.Delete(sep - 10)
	st.Put(sep-5, 99) // fresh key in shard 0's range, adjacent to the edge

	gotK, gotV := rangeOf(st, sep-20, sep+11)
	wantK := []core.Key{sep - 20, sep - 5, sep, sep + 10}
	wantV := []uint64{0, 99, 424242, 0} // zeros filled from base below
	for i, k := range wantK {
		if wantV[i] == 0 {
			pos := core.LowerBound(keys, k)
			wantV[i] = payloads[pos]
		}
	}
	if len(gotK) != len(wantK) {
		t.Fatalf("Range returned %v, want keys %v", gotK, wantK)
	}
	for i := range wantK {
		if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
			t.Fatalf("Range[%d] = (%d,%d), want (%d,%d)", i, gotK[i], gotV[i], wantK[i], wantV[i])
		}
	}
}
