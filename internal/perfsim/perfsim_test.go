package perfsim

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hashidx"
	"repro/internal/pgm"
	"repro/internal/rbs"
	"repro/internal/rmi"
	"repro/internal/rs"
	"repro/internal/search"

	artpkg "repro/internal/art"
	fastpkg "repro/internal/fast"
)

func TestCacheBasics(t *testing.T) {
	m := New(Config{cacheBytes: 1 << 12, lineBytes: 64, ways: 2})
	r := m.Alloc(1024)
	m.Access(r, 0, 8)
	c := m.Counters()
	if c.CacheMisses != 1 || c.accesses != 1 {
		t.Fatalf("first access: %v", c)
	}
	m.Access(r, 8, 8) // same line: hit
	if got := m.Counters().CacheMisses; got != 1 {
		t.Fatalf("same-line access missed: %d", got)
	}
	m.Access(r, 64, 8) // next line: miss
	if got := m.Counters().CacheMisses; got != 2 {
		t.Fatalf("next-line access: %d misses", got)
	}
	m.Access(r, 0, 8) // still cached
	if got := m.Counters().CacheMisses; got != 2 {
		t.Fatalf("cached line missed: %d", got)
	}
}

func TestCacheEviction(t *testing.T) {
	// 2 ways, 2 sets of 64B lines = 256B cache. Touching 3 lines that
	// map to the same set evicts the LRU.
	m := New(Config{cacheBytes: 256, lineBytes: 64, ways: 2})
	r := m.Alloc(4096)
	m.Access(r, 0, 1)   // set 0, miss
	m.Access(r, 128, 1) // set 0, miss
	m.Access(r, 256, 1) // set 0, miss, evicts line 0
	m.ResetCounters()
	m.Access(r, 0, 1) // must miss again
	if got := m.Counters().CacheMisses; got != 1 {
		t.Fatalf("evicted line hit: %d misses", got)
	}
}

func TestCacheSpanningAccess(t *testing.T) {
	m := New(Config{})
	r := m.Alloc(4096)
	m.Access(r, 60, 16) // spans two lines
	if got := m.Counters().accesses; got != 2 {
		t.Fatalf("spanning access touched %d lines", got)
	}
}

func TestBranchPredictor(t *testing.T) {
	m := New(Config{})
	// A always-taken branch trains to near-perfect prediction.
	for i := 0; i < 100; i++ {
		m.recordBranch(1, true)
	}
	c := m.Counters()
	if c.BranchMisses > 2 {
		t.Fatalf("always-taken mispredicted %d times", c.BranchMisses)
	}
	// An alternating branch at a different site mispredicts heavily.
	m.ResetCounters()
	for i := 0; i < 100; i++ {
		m.recordBranch(2, i%2 == 0)
	}
	if got := m.Counters().BranchMisses; got < 40 {
		t.Fatalf("alternating branch only missed %d times", got)
	}
}

func TestCountersSubString(t *testing.T) {
	a := Counters{10, 5, 3, 2, 100}
	if a.String() == "" {
		t.Error("empty String")
	}
}

// tracedCase is one traced structure and the machine it runs on.
type tracedCase struct {
	Traced
	m *Machine
}

// buildTraced builds every traced structure over the same dataset.
func buildTraced(t *testing.T, keys []core.Key) map[string]tracedCase {
	t.Helper()
	builders := map[string]core.Builder{
		"RMI":       rmi.Builder{Config: rmi.Config{Stage1: rmi.ModelLinear, Stage2: rmi.ModelLinear, Branch: 256}},
		"PGM":       pgm.Builder{Eps: 32},
		"RS":        rs.Builder{Config: rs.Config{SplineErr: 32, RadixBits: 10}},
		"RBS":       rbs.Builder{RadixBits: 10},
		"BTree":     btree.Builder{Stride: 1},
		"IBTree":    btree.Builder{Stride: 1, Interpolate: true},
		"ART":       artpkg.Builder{Stride: 1},
		"FAST":      fastpkg.Builder{Stride: 1},
		"RobinHash": hashidx.RobinHoodBuilder{},
	}
	out := map[string]tracedCase{}
	for name, b := range builders {
		idx, err := b.Build(keys)
		if err != nil {
			t.Fatal(err)
		}
		m := New(Config{cacheBytes: 1 << 20})
		tr, ok := For(idx, m, keys)
		if !ok {
			t.Fatalf("%s: no traced form", name)
		}
		out[name] = tracedCase{tr, m}
	}
	return out
}

func TestTracedBoundsMatchPlainLookups(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 20000, 1)
	lookups := dataset.Lookups(keys, 500, 3)
	for name, tr := range buildTraced(t, keys) {
		for _, x := range lookups {
			b := tr.Lookup(x)
			if !core.ValidBound(keys, x, b) {
				t.Fatalf("%s: traced lookup produced invalid bound %v for %d", name, b, x)
			}
		}
	}
}

// TestTracedRMILeafLines: the simulated leaf load is at the stride
// memory holds the leaf array in, and is charged at every line that
// holds the leaf's bytes or its successor's lo, the upper clamp, 8 bytes
// into a 16-byte linear leaf and 2 into a 6-byte knot leaf; the last
// leaf has no successor to read. The leaf region starts on a line, so a
// leaf touches two lines exactly when it is within two strides of a
// line's end: a linear leaf at offset 48 mod 64, a knot leaf at 54 to
// 62, and one otherwise.
func TestTracedRMILeafLines(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 20000, 1)
	knot := rmi.TuneBranch(keys, 512)
	for _, cfg := range []rmi.Config{
		{Stage1: rmi.ModelLinear, Stage2: rmi.ModelLinear, Branch: 1000},
		knot,
	} {
		idx, err := rmi.New(keys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := New(Config{cacheBytes: 1 << 20})
		tr, _ := For(idx, m, keys)
		leaves := idx.Arrays()[1]
		stride := leaves.Elem
		loAt := map[int]int{16: 8, 6: 2}[stride] // where a leaf holds its lo
		if cfg == knot && stride != 6 {
			t.Fatalf("%v: the tuner's pick has %d-byte leaves, want the 6-byte knot leaf", cfg, stride)
		}
		offsets := map[int]bool{}
		for _, x := range keys {
			var rec readRecorder
			idx.Trace(x, &rec)
			if len(rec) != 2 || rec[0].a != 0 || rec[1].a != 1 {
				t.Fatalf("%v: key %d reads %v, want the model, then the leaves", cfg, x, rec)
			}
			leaf := rec[1].i
			off := leaf * stride
			offsets[off%64] = true
			lines := map[int]bool{}
			for b := off; b < off+stride; b++ {
				lines[b/64] = true
			}
			if last := leaf == leaves.Len-1; !last {
				for b := (leaf+1)*stride + loAt; b < (leaf+1)*stride+loAt+4; b++ {
					lines[b/64] = true
				}
			} else if rec[1].n != 1 {
				t.Fatalf("%v: the last leaf reads %d leaves, want itself alone", cfg, rec[1].n)
			}
			want := uint64(len(lines))
			if leaf < leaves.Len-1 && (want == 2) != (off%64 > 64-2*stride) {
				t.Fatalf("%v: leaf %d at offset %d mod 64 spans %d lines with its successor's lo", cfg, leaf, off%64, want)
			}
			before := m.Counters().accesses
			tr.(*traced).Read(rec[1].a, rec[1].i, rec[1].n)
			if got := m.Counters().accesses - before; got != want {
				t.Fatalf("%v: leaf %d (%d bytes) touches %d lines, want %d", cfg, leaf, stride, got, want)
			}
		}
		if len(offsets) != 64/(stride&-stride) {
			t.Fatalf("%v: leaves read at offsets %v mod 64, want all %d", cfg, offsets, 64/(stride&-stride))
		}
	}
}

// readRecorder lists a descent's reads and ignores its other steps.
type readRecorder []struct{ a, i, n int }

func (r *readRecorder) Read(a, i, n int)                { *r = append(*r, struct{ a, i, n int }{a, i, n}) }
func (*readRecorder) Search(int, int, int, int, uint32) {}
func (*readRecorder) Compare(uint32, bool)              {}
func (*readRecorder) Work(int)                          {}

func TestTracedCounterProfiles(t *testing.T) {
	// The relative profiles the paper reports: the RMI needs far fewer
	// cache misses per lookup than a full B-Tree; RobinHood needs the
	// fewest of all ordered-vs-hash comparisons aside; the B-Tree's
	// misses scale with its height.
	// The working set (keys + payloads + index) must exceed the 1 MiB
	// simulated cache, as the paper's 200M-key datasets exceed the LLC;
	// otherwise every structure runs at zero misses.
	keys := dataset.MustGenerate(dataset.Amzn, 100000, 1)
	lookups := dataset.Lookups(keys, 30000, 3)
	traced := buildTraced(t, keys)
	missRate := map[string]float64{}
	for name, tr := range traced {
		m := tr.m
		// Warm up, then measure.
		for _, x := range lookups {
			tr.Lookup(x)
		}
		m.ResetCounters()
		for _, x := range lookups {
			tr.Lookup(x)
		}
		missRate[name] = float64(m.Counters().CacheMisses) / float64(len(lookups))
	}
	if missRate["RMI"] >= missRate["BTree"] {
		t.Errorf("RMI misses (%f) should be below BTree (%f)", missRate["RMI"], missRate["BTree"])
	}
	// Every structure must incur real traffic once the working set
	// exceeds the cache (at laptop scale the hash-vs-tree ordering of
	// Figure 16c is height-dependent, so only positivity is asserted).
	for name, rate := range missRate {
		if rate <= 0 {
			t.Errorf("%s: zero cache misses with an out-of-cache working set", name)
		}
	}
}

// TestIBTreeProfileIsItsOwn: IBTree's interpolation — its end-key
// reads, its float work and its probe, a branch — is charged, so its
// profile is not BTree's.
func TestIBTreeProfileIsItsOwn(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 100000, 1)
	lookups := dataset.Lookups(keys, 5000, 3)
	traced := buildTraced(t, keys)
	var c [2]Counters
	for i, name := range []string{"BTree", "IBTree"} {
		for _, x := range lookups {
			traced[name].Lookup(x)
		}
		c[i] = traced[name].m.Counters()
	}
	if c[0] == c[1] {
		t.Fatalf("IBTree is charged exactly as BTree: %v", c[0])
	}
	if c[1].branches <= c[0].branches {
		t.Errorf("IBTree records %d branches, BTree %d: the interpolation probe is not charged", c[1].branches, c[0].branches)
	}
}

// TestTracedSearchesChargeReplaySlots: the key loads a traced lookup
// charges to PGM's level keys, RS's spline keys and the B+tree's levels
// are the slots the real search compared — search.Replay over the
// window and rank the descent reports — in order, followed by the reads
// that evaluate what the search found. Lines are one key wide, so the
// cache's last-touch ticks give every slot's order.
func TestTracedSearchesChargeReplaySlots(t *testing.T) {
	keys := dataset.MustGenerate(dataset.OSM, 20000, 1)
	lookups := dataset.Lookups(keys, 300, 3)
	for name, b := range map[string]core.Builder{
		"PGM":    pgm.Builder{Eps: 32},
		"RS":     rs.Builder{Config: rs.Config{SplineErr: 32, RadixBits: 10}},
		"BTree":  btree.Builder{Stride: 4},
		"IBTree": btree.Builder{Stride: 4, Interpolate: true},
	} {
		idx, err := b.Build(keys)
		if err != nil {
			t.Fatal(err)
		}
		m := New(Config{cacheBytes: 64 << 10, lineBytes: keyBytes})
		tr, _ := For(idx, m, keys)
		v := tr.(*traced)
		searched := 0
		for _, x := range lookups {
			rec := slotRecorder{arrays: v.arrays, want: map[int][]int{}}
			v.idx.Trace(x, &rec)
			searched += rec.searches
			from := m.tick
			tr.Lookup(x)
			for a, slots := range rec.want {
				if got, want := touched(m, v.arrays[a].Region, core.SizeOf(v.idx.Arrays()[a]), from), lastTouches(slots); !slices.Equal(got, want) {
					t.Fatalf("%s: Lookup(%d) charged slots %v of key array %d, the search compared %v", name, x, got, a, want)
				}
			}
		}
		if searched == 0 {
			t.Fatalf("%s: no lookup reported a search", name)
		}
	}
}

// slotRecorder lists, per array of key-wide elements, the slots a
// descent's steps name in order: those search.Replay names for a
// search, then those a read loads.
type slotRecorder struct {
	arrays   []array
	want     map[int][]int
	searches int
}

func (r *slotRecorder) Read(a, i, n int) {
	if r.arrays[a].elem == keyBytes {
		for s := i; s < i+n; s++ {
			r.want[a] = append(r.want[a], s)
		}
	}
}

func (r *slotRecorder) Search(a, lo, hi, rank int, _ uint32) {
	r.searches++
	search.Replay(lo, hi, rank, func(slot int, _ bool) { r.want[a] = append(r.want[a], slot) })
}

func (*slotRecorder) Compare(uint32, bool) {}
func (*slotRecorder) Work(int)             {}

// touched lists the keyBytes-wide slots of the size bytes at r whose
// lines m has touched since tick from, in order of last touch.
func touched(m *Machine, r Region, size int, from uint64) []int {
	type touch struct {
		slot int
		tick uint64
	}
	var ts []touch
	for set, tags := range m.tags {
		for w, line := range tags {
			addr := line * m.lineSz
			if tick := m.ticks[set][w]; tick > from && addr >= r.base && addr < r.base+uint64(size) {
				ts = append(ts, touch{int(addr-r.base) / keyBytes, tick})
			}
		}
	}
	slices.SortFunc(ts, func(a, b touch) int { return cmp.Compare(a.tick, b.tick) })
	slots := make([]int, len(ts))
	for i, tc := range ts {
		slots[i] = tc.slot
	}
	return slots
}

// lastTouches is slots in order of each one's last occurrence.
func lastTouches(slots []int) []int {
	var out []int
	for i, s := range slots {
		if !slices.Contains(slots[i+1:], s) {
			out = append(out, s)
		}
	}
	return out
}
