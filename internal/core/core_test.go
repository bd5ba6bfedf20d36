package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestLowerBoundBasic(t *testing.T) {
	keys := []Key{1, 3, 9, 12, 56, 57, 58, 95, 98, 99}
	tests := []struct {
		x    Key
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {9, 2}, {10, 3},
		{12, 3}, {13, 4}, {56, 4}, {57, 5}, {58, 6}, {59, 7},
		{72, 7}, // the paper's Figure 1 example: LB(72) is key 95 at index 7
		{95, 7}, {96, 8}, {98, 8}, {99, 9}, {100, 10}, {^Key(0), 10},
	}
	for _, tc := range tests {
		if got := LowerBound(keys, tc.x); got != tc.want {
			t.Errorf("LowerBound(%d) = %d, want %d", tc.x, got, tc.want)
		}
	}
}

func TestLowerBoundEmpty(t *testing.T) {
	if got := LowerBound(nil, 5); got != 0 {
		t.Errorf("LowerBound(nil, 5) = %d, want 0", got)
	}
}

func TestLowerBoundDuplicates(t *testing.T) {
	keys := []Key{2, 2, 2, 5, 5, 9}
	if got := LowerBound(keys, 2); got != 0 {
		t.Errorf("LowerBound(dups, 2) = %d, want 0 (first duplicate)", got)
	}
	if got := LowerBound(keys, 5); got != 3 {
		t.Errorf("LowerBound(dups, 5) = %d, want 3", got)
	}
	if got := LowerBound(keys, 3); got != 3 {
		t.Errorf("LowerBound(dups, 3) = %d, want 3", got)
	}
}

func TestLowerBoundMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(200)
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = Key(rng.Intn(500))
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for q := 0; q < 50; q++ {
			x := Key(rng.Intn(600))
			want := sort.Search(n, func(i int) bool { return keys[i] >= x })
			if got := LowerBound(keys, x); got != want {
				t.Fatalf("trial %d: LowerBound(%d) = %d, want %d (keys=%v)", trial, x, got, want, keys)
			}
		}
	}
}

func TestValidBound(t *testing.T) {
	keys := []Key{10, 20, 30, 40, 50}
	cases := []struct {
		x    Key
		b    Bound
		want bool
	}{
		{25, Bound{0, 5}, true},   // full bound is always valid
		{25, Bound{2, 3}, true},   // exact
		{25, Bound{1, 4}, true},   // contains
		{25, Bound{3, 5}, false},  // misses lower bound (lb=2)
		{25, Bound{0, 2}, false},  // ends before lower bound
		{25, Bound{-1, 3}, false}, // out of range
		{25, Bound{2, 6}, false},  // beyond array
		{25, Bound{3, 2}, false},  // inverted
		{5, Bound{0, 1}, true},    // lb = 0
		{60, Bound{4, 5}, true},   // lb = n, any bound touching Hi=n
		{60, Bound{5, 5}, true},   // empty bound at end is accepted for overflow keys
		{60, Bound{0, 4}, false},  // does not reach the end
		{10, Bound{0, 1}, true},
		{50, Bound{4, 5}, true},
		{50, Bound{0, 4}, false},
	}
	for _, tc := range cases {
		if got := ValidBound(keys, tc.x, tc.b); got != tc.want {
			t.Errorf("ValidBound(x=%d, b=%v) = %v, want %v", tc.x, tc.b, got, tc.want)
		}
	}
}

func TestBoundClamp(t *testing.T) {
	cases := []struct {
		in   Bound
		n    int
		want Bound
	}{
		{Bound{-5, 3}, 10, Bound{0, 3}},
		{Bound{2, 15}, 10, Bound{2, 10}},
		{Bound{-2, 20}, 10, Bound{0, 10}},
		{Bound{5, 3}, 10, Bound{3, 3}},
		{Bound{12, 20}, 10, Bound{10, 10}},
	}
	for _, tc := range cases {
		if got := tc.in.Clamp(tc.n); got != tc.want {
			t.Errorf("%v.Clamp(%d) = %v, want %v", tc.in, tc.n, got, tc.want)
		}
	}
}

func TestBoundWidthAndString(t *testing.T) {
	b := Bound{3, 9}
	if b.Width() != 6 {
		t.Errorf("Width = %d, want 6", b.Width())
	}
	if b.String() != "[3,9)" {
		t.Errorf("String = %q", b.String())
	}
}

func TestBoundAround(t *testing.T) {
	cases := []struct {
		pos, errLo, errHi, n int
		want                 Bound
	}{
		{50, 5, 5, 100, Bound{45, 56}},
		{2, 5, 5, 100, Bound{0, 8}},
		{98, 5, 5, 100, Bound{93, 100}},
		{0, 0, 0, 100, Bound{0, 1}},
		{99, 0, 0, 100, Bound{99, 100}},
		{150, 5, 5, 100, Bound{100, 100}}, // predicted past the end
		{-10, 5, 5, 100, Bound{0, 0}},     // hi clamps to 0 via lo>hi rule? lo=0,hi=-4 -> lo=0,hi->-4 then clamp
	}
	for _, tc := range cases {
		got := BoundAround(tc.pos, tc.errLo, tc.errHi, tc.n)
		if got.Lo < 0 || got.Hi > tc.n || got.Lo > got.Hi {
			t.Errorf("BoundAround(%d,%d,%d,%d) = %v not clamped", tc.pos, tc.errLo, tc.errHi, tc.n, got)
		}
		if tc.pos >= 0 && tc.pos < tc.n && got != tc.want {
			t.Errorf("BoundAround(%d,%d,%d,%d) = %v, want %v", tc.pos, tc.errLo, tc.errHi, tc.n, got, tc.want)
		}
	}
}

// Property: BoundAround always contains pos when pos is in range, and is
// always clamped.
func TestBoundAroundProperty(t *testing.T) {
	f := func(pos int16, errLo, errHi uint8, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		b := BoundAround(int(pos), int(errLo), int(errHi), n)
		if b.Lo < 0 || b.Hi > n || b.Lo > b.Hi {
			return false
		}
		if int(pos) >= 0 && int(pos) < n {
			return b.Lo <= int(pos) && int(pos) < b.Hi
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: LowerBound result always brackets correctly: keys[i-1] < x <= keys[i].
func TestLowerBoundProperty(t *testing.T) {
	f := func(raw []uint64, x uint64) bool {
		keys := make([]Key, len(raw))
		copy(keys, raw)
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		i := LowerBound(keys, x)
		if i > 0 && keys[i-1] >= x {
			return false
		}
		if i < len(keys) && keys[i] < x {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted(nil) {
		t.Error("nil should be sorted")
	}
	if !IsSorted([]Key{5}) {
		t.Error("single element should be sorted")
	}
	if !IsSorted([]Key{1, 1, 2, 3}) {
		t.Error("duplicates should be sorted")
	}
	if IsSorted([]Key{2, 1}) {
		t.Error("descending should not be sorted")
	}
}

func TestFullBound(t *testing.T) {
	keys := []Key{1, 2, 3}
	b := FullBound(len(keys))
	for x := Key(0); x < 5; x++ {
		if !ValidBound(keys, x, b) {
			t.Errorf("FullBound invalid for x=%d", x)
		}
	}
}
