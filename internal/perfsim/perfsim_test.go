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

// TestTracedRegionsSumToSizeBytes: what a traced structure lays out in
// the simulated address space is what the real index says it occupies —
// the regions it allocates beside the shared key and payload arrays sum
// to SizeBytes(), so a simulated lookup cannot skip an array the real
// one reads, or stride one at a size memory does not hold it in.
func TestTracedRegionsSumToSizeBytes(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 20000, 1)
	for name, tr := range buildTraced(t, keys) {
		var regions []Region
		var size int
		switch v := tr.Traced.(type) {
		case *tracedRMI:
			regions, size = []Region{v.model, v.leaves}, v.idx.SizeBytes()
		case *tracedPGM:
			regions, size = slices.Concat(v.keys, v.slopes, v.pos, []Region{v.margins}), v.idx.SizeBytes()
		case *tracedRS:
			regions, size = []Region{v.base, v.fine, v.keys, v.pos}, v.idx.SizeBytes()
		case *tracedRBS:
			regions, size = []Region{v.table}, v.idx.SizeBytes()
		case *tracedBTree:
			regions, size = v.levels, v.idx.SizeBytes()
		case *tracedART:
			regions, size = v.arrays[:4], v.idx.SizeBytes()
		case *tracedFAST:
			regions, size = v.levels, v.idx.SizeBytes()
		case *tracedRobin:
			regions, size = []Region{v.slots}, v.tbl.SizeBytes()
		default:
			t.Fatalf("%s: traced type %T has no region list here", name, tr)
		}
		sum := 0
		for _, r := range regions {
			sum += r.size
		}
		if sum != size {
			t.Errorf("%s: simulated index regions hold %d B, SizeBytes() is %d", name, sum, size)
		}
	}
}

// TestTracedRMILeafLines: the simulated leaf load is at the stride
// memory holds the leaf array in, and is charged at every line its
// bytes span. The leaf region starts on a line, so a 24-byte linear leaf
// touches two lines exactly when its offset mod 64 is 48 or 56, two of
// every eight, and a 64-byte cubic leaf always one.
func TestTracedRMILeafLines(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 20000, 1)
	for _, stage2 := range []rmi.ModelKind{rmi.ModelLinear, rmi.ModelCubic} {
		idx, err := rmi.New(keys, rmi.Config{Stage1: rmi.ModelLinear, Stage2: stage2, Branch: 1000})
		if err != nil {
			t.Fatal(err)
		}
		m := New(Config{cacheBytes: 1 << 20})
		tr, _ := For(idx, m, keys)
		for leaf := 0; leaf < idx.NumLeaves(); leaf++ {
			want := uint64(1)
			if off := leaf * idx.LeafBytes() % 64; stage2 != rmi.ModelCubic && (off == 48 || off == 56) {
				want = 2
			}
			before := m.Counters().accesses
			tr.(*tracedRMI).touchLeaf(leaf)
			if lines := m.Counters().accesses - before; lines != want {
				t.Fatalf("stage 2 %v: leaf %d (%d bytes) touches %d lines, want %d", stage2, leaf, idx.LeafBytes(), lines, want)
			}
		}
	}
}

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
		for _, x := range lookups {
			// want lists, per key region, the slots charged in order.
			want := map[Region][]int{}
			charge := func(r Region, slots ...int) { want[r] = append(want[r], slots...) }
			ladder := func(r Region, lo, hi, rank int) {
				search.Replay(lo, hi, rank, func(slot int, _ bool) { charge(r, slot) })
			}
			switch v := tr.(type) {
			case *tracedPGM:
				v.idx.Trace(x, func(st pgm.PathStep) {
					ladder(v.keys[st.Level], st.Lo, st.Hi, st.Rank)
					charge(v.keys[st.Level], max(st.Rank-1, 0))
				})
			case *tracedRS:
				v.idx.Trace(x, func(_, _, lo, hi, rank int) {
					ladder(v.keys, lo, hi, rank)
					seg := max(rank-1, 0)
					charge(v.keys, seg)
					if seg+1 < v.idx.NumPoints() {
						charge(v.keys, seg+1)
					}
				})
			case *tracedBTree:
				v.idx.Trace(x, func(st btree.NodeStep) {
					lvl, base := v.levels[st.Level], st.Node*btree.Fanout
					if st.Ends {
						charge(lvl, base, base+min(btree.Fanout, lvl.size/keyBytes-base)-1)
					}
					if st.Probe >= 0 {
						charge(lvl, base+st.Probe)
					}
					ladder(lvl, base+st.Lo, base+st.Hi, base+st.Rank)
				})
			}
			from := m.tick
			tr.Lookup(x)
			for r, slots := range want {
				if got, want := touched(m, r, from), lastTouches(slots); !slices.Equal(got, want) {
					t.Fatalf("%s: Lookup(%d) charged slots %v of a key region, the search compared %v", name, x, got, want)
				}
			}
		}
	}
}

// touched lists the keyBytes-wide slots of r whose lines m has touched
// since tick from, in order of last touch.
func touched(m *Machine, r Region, from uint64) []int {
	type touch struct {
		slot int
		tick uint64
	}
	var ts []touch
	for set, tags := range m.tags {
		for w, line := range tags {
			addr := line * m.lineSz
			if tick := m.ticks[set][w]; tick > from && addr >= r.base && addr < r.base+uint64(r.size) {
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
