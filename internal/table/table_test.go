package table

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/search"
)

// buildTable builds a mid-sweep table for a family over keys, with
// payloads derived from positions so expected values are computable.
func buildTable(t *testing.T, family string, keys []core.Key, fn search.Fn) *Table {
	t.Helper()
	nb, ok := registry.Builder(family, keys)
	if !ok {
		t.Fatalf("no builder for family %s", family)
	}
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i)*2 + 1 // nonzero, position-identifying
	}
	tbl, err := Build(nb.Builder, keys, payloads, fn)
	if err != nil {
		t.Fatalf("%s: %v", family, err)
	}
	return tbl
}

// TestConformanceAllFamilies verifies Get, GetBatch and Range against
// search.Binary ground truth over the raw arrays, for every registered
// family (the hash families degrade to the full bound for absent keys,
// so they too serve arbitrary probes): present keys, absent
// neighbours, and out-of-range probes.
func TestConformanceAllFamilies(t *testing.T) {
	if n := len(registry.Families()); n < 13 {
		t.Fatalf("registry lists only %d families: %v", n, registry.Families())
	}
	keys := dataset.MustGenerate(dataset.OSM, 5000, 11)
	probes := make([]core.Key, 0, 3*len(keys))
	for _, k := range keys {
		probes = append(probes, k, k+1)
		if k > 0 {
			probes = append(probes, k-1)
		}
	}
	probes = append(probes, 0, ^core.Key(0))

	for _, family := range registry.Families() {
		tbl := buildTable(t, family, keys, search.BinarySearch)

		// Ground truth via pure binary search on the raw arrays.
		expect := func(x core.Key) (uint64, bool) {
			pos := search.BinarySearch(keys, x, core.FullBound(len(keys)))
			if pos < len(keys) && keys[pos] == x {
				return uint64(pos)*2 + 1, true
			}
			return 0, false
		}

		for _, x := range probes {
			wantV, wantOK := expect(x)
			gotV, gotOK := tbl.Get(x)
			if gotV != wantV || gotOK != wantOK {
				t.Fatalf("%s: Get(%d) = (%d,%v), want (%d,%v)", family, x, gotV, gotOK, wantV, wantOK)
			}
		}

		out := make([]uint64, len(probes))
		found := tbl.GetBatch(probes, out)
		wantFound := 0
		for i, x := range probes {
			wantV, wantOK := expect(x)
			if wantOK {
				wantFound++
			}
			if out[i] != wantV {
				t.Fatalf("%s: GetBatch out[%d] for key %d = %d, want %d", family, i, x, out[i], wantV)
			}
		}
		if found != wantFound {
			t.Fatalf("%s: GetBatch found %d, want %d", family, found, wantFound)
		}

		// Range over a middle window against LowerBound ground truth.
		lo, hi := keys[len(keys)/4], keys[3*len(keys)/4]
		rk, rv, _ := tbl.RangeTombed(lo, hi)
		wantLo := core.LowerBound(keys, lo)
		wantHi := core.LowerBound(keys, hi)
		if len(rk) != wantHi-wantLo || len(rv) != wantHi-wantLo {
			t.Fatalf("%s: Range len %d, want %d", family, len(rk), wantHi-wantLo)
		}
		for i := range rk {
			if rk[i] != keys[wantLo+i] || rv[i] != uint64(wantLo+i)*2+1 {
				t.Fatalf("%s: Range[%d] = (%d,%d), want (%d,%d)",
					family, i, rk[i], rv[i], keys[wantLo+i], uint64(wantLo+i)*2+1)
			}
		}
	}
}

// TestGetBatchSortedAndShuffled checks the batch path on ascending
// batches (sorted-probe reuse engaged) and on shuffled batches
// (opportunistic narrowing disabled) with duplicates present.
func TestGetBatchSortedAndShuffled(t *testing.T) {
	keys := make([]core.Key, 0, 4000)
	for i := 0; i < 1000; i++ {
		k := core.Key(i*37 + 5)
		for d := 0; d < 1+i%4; d++ { // duplicate runs of 1..4
			keys = append(keys, k)
		}
	}
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i) + 1
	}
	for _, family := range []string{"RMI", "PGM", "RS", "RBS", "BTree"} {
		nb, ok := registry.Builder(family, keys)
		if !ok {
			t.Fatalf("no builder for %s", family)
		}
		tbl, err := Build(nb.Builder, keys, payloads, search.BinarySearch)
		if err != nil {
			t.Fatal(err)
		}
		shuffled := dataset.Lookups(keys, 2000, 3)
		sorted := append([]core.Key(nil), shuffled...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, batch := range [][]core.Key{sorted, shuffled} {
			out := make([]uint64, len(batch))
			tbl.GetBatch(batch, out)
			for i, x := range batch {
				pos := core.LowerBound(keys, x)
				var want uint64
				if pos < len(keys) && keys[pos] == x {
					want = payloads[pos]
				}
				if out[i] != want {
					t.Fatalf("%s: batch key %d -> %d, want %d", family, x, out[i], want)
				}
			}
		}
	}
}

// TestBatchIndexAgreement holds core.LookupBatch, the bound pass of
// every batched read, to each family's Lookup key for key: PGM's batch
// descent and the per-key loop every other family takes. Probes cover
// present and absent keys and both ends of the key space.
func TestBatchIndexAgreement(t *testing.T) {
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, 4000, 5)
		probes := dataset.Lookups(keys, 1000, 9)
		probes = append(probes, 0, ^core.Key(0), keys[0]-1, keys[0], keys[len(keys)-1], keys[len(keys)-1]+1)
		got := make([]core.Bound, len(probes))
		for _, family := range registry.Families() {
			nb, ok := registry.Builder(family, keys)
			if !ok {
				t.Fatalf("no builder for %s", family)
			}
			idx, err := nb.Builder.Build(keys)
			if err != nil {
				t.Fatalf("%s on %s: %v", family, name, err)
			}
			core.LookupBatch(idx, probes, got)
			for i, x := range probes {
				if want := idx.Lookup(x); got[i] != want {
					t.Fatalf("%s on %s: LookupBatch bound %v != Lookup bound %v for key %d", family, name, got[i], want, x)
				}
			}
		}
	}
}

// TestTableValidation covers constructor error paths.
func TestTableValidation(t *testing.T) {
	keys := []core.Key{3, 2, 1}
	if _, err := New(keys, make([]uint64, 3), nil, nil); err == nil {
		t.Error("nil index accepted")
	}
	nb, _ := registry.Builder("BTree", []core.Key{1, 2, 3})
	idx, err := nb.Builder.Build([]core.Key{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(keys, make([]uint64, 3), idx, nil); err == nil {
		t.Error("unsorted keys accepted")
	}
	if _, err := New([]core.Key{1, 2, 3}, make([]uint64, 2), idx, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	tbl, err := New([]core.Key{1, 2, 3}, []uint64{10, 20, 30}, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ks := tbl.Keys(); ks[0] != 1 || ks[len(ks)-1] != 3 {
		t.Errorf("min, max key = %d, %d", ks[0], ks[len(ks)-1])
	}
	if tbl.Len() != 3 || tbl.Index() == nil || tbl.SizeBytes() <= 0 {
		t.Error("accessor inconsistency")
	}
}

func TestTableViewsAndCount(t *testing.T) {
	keys := []core.Key{1, 4, 4, 4, 9}
	payloads := []uint64{10, 40, 41, 42, 90}
	nb, _ := registry.Builder("BTree", keys)
	tbl, err := Build(nb.Builder, keys, payloads, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Keys(); len(got) != len(keys) || got[0] != 1 || got[4] != 9 {
		t.Errorf("Keys view wrong: %v", got)
	}
	if got := tbl.Payloads(); len(got) != len(payloads) || got[0] != 10 {
		t.Errorf("Payloads view wrong: %v", got)
	}
	for _, c := range []struct {
		key  core.Key
		want int
	}{{1, 1}, {4, 3}, {9, 1}, {5, 0}, {0, 0}, {100, 0}} {
		if got := tbl.CountKey(c.key); got != c.want {
			t.Errorf("CountKey(%d) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestEmptyTable(t *testing.T) {
	tbl := Empty(nil)
	if tbl.Len() != 0 || tbl.SizeBytes() != 0 {
		t.Fatalf("Empty table: Len=%d SizeBytes=%d", tbl.Len(), tbl.SizeBytes())
	}
	if _, ok := tbl.Get(42); ok {
		t.Error("Get on empty table found a key")
	}
	if len(tbl.Keys()) != 0 {
		t.Error("empty table has keys")
	}
	if k, _, _ := tbl.RangeTombed(0, ^core.Key(0)); len(k) != 0 {
		t.Error("Range on empty table non-empty")
	}
	out := make([]uint64, 3)
	if found := tbl.GetBatch([]core.Key{1, 2, 3}, out); found != 0 {
		t.Errorf("GetBatch on empty table found %d", found)
	}
	if tbl.CountKey(7) != 0 {
		t.Error("CountKey on empty table non-zero")
	}
}
