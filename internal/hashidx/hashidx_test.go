package hashidx

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
)

// entries counts the table's occupied slots.
func (t *RobinHood) entries() (n int) {
	for _, d := range t.dist {
		if d >= 0 {
			n++
		}
	}
	return n
}

func (t *cuckoo) entries() (n int) {
	for _, u := range t.used {
		if u {
			n++
		}
	}
	return n
}

func TestRobinHoodBasic(t *testing.T) {
	tbl, err := newRobinHood(100, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tbl.insert(uint64(i*17), int32(i))
	}
	if n := tbl.entries(); n != 100 {
		t.Fatalf("count = %d", n)
	}
	for i := 0; i < 100; i++ {
		v, ok := tbl.get(uint64(i*17), nil)
		if !ok || v != int32(i) {
			t.Fatalf("Get(%d) = (%d, %v)", i*17, v, ok)
		}
	}
	if _, ok := tbl.get(5, nil); ok {
		t.Error("absent key found")
	}
}

func TestRobinHoodOverwrite(t *testing.T) {
	tbl, _ := newRobinHood(10, 0.5)
	tbl.insert(7, 1)
	tbl.insert(7, 2)
	if n := tbl.entries(); n != 1 {
		t.Fatalf("count = %d", n)
	}
	if v, _ := tbl.get(7, nil); v != 2 {
		t.Fatalf("Get(7) = %d", v)
	}
}

func TestRobinHoodHighLoad(t *testing.T) {
	// 0.99 load factor forces long probe chains and displacement.
	tbl, _ := newRobinHood(1000, 0.99)
	rng := rand.New(rand.NewSource(2))
	keys := map[uint64]int32{}
	for i := 0; i < 1000; i++ {
		k := rng.Uint64()
		keys[k] = int32(i)
		tbl.insert(k, int32(i))
	}
	for k, v := range keys {
		got, ok := tbl.get(k, nil)
		if !ok || got != v {
			t.Fatalf("Get(%d) = (%d, %v), want %d", k, got, ok, v)
		}
	}
}

func TestRobinHoodInvalidLoadFactor(t *testing.T) {
	for _, lf := range []float64{0, -1, 1.5} {
		if _, err := newRobinHood(10, lf); err == nil {
			t.Errorf("load factor %f should error", lf)
		}
	}
}

func TestCuckooBasic(t *testing.T) {
	tbl, err := newCuckoo(100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tbl.insert(uint64(i*31+7), int32(i))
	}
	if n := tbl.entries(); n != 100 {
		t.Fatalf("count = %d", n)
	}
	for i := 0; i < 100; i++ {
		v, ok := tbl.get(uint64(i*31 + 7))
		if !ok || v != int32(i) {
			t.Fatalf("Get = (%d, %v)", v, ok)
		}
	}
	if _, ok := tbl.get(1); ok {
		t.Error("absent key found")
	}
}

func TestCuckooHighLoad(t *testing.T) {
	// The paper runs Cuckoo at 0.99 load; eviction chains and grow
	// must keep every entry reachable.
	tbl, _ := newCuckoo(5000, 0.99)
	rng := rand.New(rand.NewSource(3))
	keys := map[uint64]int32{}
	for i := 0; i < 5000; i++ {
		k := rng.Uint64()
		keys[k] = int32(i)
		tbl.insert(k, int32(i))
	}
	for k, v := range keys {
		got, ok := tbl.get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) = (%d, %v), want %d", k, got, ok, v)
		}
	}
}

func TestCuckooOverwrite(t *testing.T) {
	tbl, _ := newCuckoo(10, 0.5)
	tbl.insert(9, 1)
	tbl.insert(9, 5)
	if n := tbl.entries(); n != 1 {
		t.Fatalf("count = %d", n)
	}
	if v, _ := tbl.get(9); v != 5 {
		t.Fatalf("Get(9) = %d", v)
	}
}

func TestBuildersOnDataset(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 20000, 1)
	for _, b := range []core.Builder{RobinHoodBuilder{}, CuckooBuilder{}} {
		idx, err := b.Build(keys)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		// Present keys: exact single-position bounds.
		for i, k := range keys[:2000] {
			bd := idx.Lookup(k)
			if bd.Width() != 1 || bd.Lo != i {
				t.Fatalf("%s: Lookup(%d) = %v, want [%d,%d)", b.Name(), k, bd, i, i+1)
			}
		}
		// Absent keys fall back to the full (valid) bound.
		for _, k := range dataset.AbsentLookups(keys, 200, 1) {
			bd := idx.Lookup(k)
			if !core.ValidBound(keys, k, bd) {
				t.Fatalf("%s: invalid bound for absent key", b.Name())
			}
		}
		if idx.SizeBytes() <= 0 {
			t.Errorf("%s: non-positive size", b.Name())
		}
	}
}

func TestBuildersDuplicates(t *testing.T) {
	keys := []core.Key{4, 4, 4, 9, 9, 12}
	for _, b := range []core.Builder{RobinHoodBuilder{}, CuckooBuilder{}} {
		idx, err := b.Build(keys)
		if err != nil {
			t.Fatal(err)
		}
		bd := idx.Lookup(4)
		if bd.Lo != 0 {
			t.Errorf("%s: duplicate key should map to first position, got %v", b.Name(), bd)
		}
	}
}

func TestBuildersEmpty(t *testing.T) {
	for _, b := range []core.Builder{RobinHoodBuilder{}, CuckooBuilder{}} {
		if _, err := b.Build(nil); err == nil {
			t.Errorf("%s: expected error", b.Name())
		}
	}
}

func TestSizeReflectsLoadFactor(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 10000, 1)
	dense, _ := newRobinHood(len(keys), 0.9)
	sparse, _ := newRobinHood(len(keys), 0.25)
	for i, k := range keys {
		dense.insert(k, int32(i))
		sparse.insert(k, int32(i))
	}
	if dense.SizeBytes() >= sparse.SizeBytes() {
		t.Errorf("0.9 load (%d B) should be smaller than 0.25 load (%d B)",
			dense.SizeBytes(), sparse.SizeBytes())
	}
}

// Property: both tables behave like map[uint64]int32 under random
// insert sequences with overwrites.
func TestHashTablesProperty(t *testing.T) {
	f := func(raw []uint64) bool {
		rh, _ := newRobinHood(len(raw), 0.5)
		ck, _ := newCuckoo(len(raw), 0.5)
		ref := map[uint64]int32{}
		for i, k := range raw {
			ref[k] = int32(i)
			rh.insert(k, int32(i))
			ck.insert(k, int32(i))
		}
		for k, v := range ref {
			if got, ok := rh.get(k, nil); !ok || got != v {
				return false
			}
			if got, ok := ck.get(k); !ok || got != v {
				return false
			}
		}
		return rh.entries() == len(ref) && ck.entries() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
