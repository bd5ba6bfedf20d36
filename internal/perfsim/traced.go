package perfsim

import (
	"unsafe"

	"repro/internal/art"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/fast"
	"repro/internal/hashidx"
	"repro/internal/pgm"
	"repro/internal/rbs"
	"repro/internal/rmi"
	"repro/internal/rs"
	"repro/internal/search"
)

// Traced replays index lookups against a simulated Machine, producing
// the counter profiles of Section 4.3. Each Lookup runs the index's
// own descent, whose visitor turns every step into simulated accesses
// — for PGM's, RS's and the B+tree's searches, the very slots the
// search compared (search.Replay) — followed by the last-mile binary
// search over the (shared) data region, mirroring the paper's measured
// loop.
type Traced interface {
	// Lookup simulates one full lookup (inference + last-mile search
	// + one payload access) and returns the bound the descent resolved.
	Lookup(key core.Key) core.Bound
}

// keyBytes is the width of one key — of the data array, of PGM's
// segment keys, of RS's spline-point keys and of the B+tree's and
// FAST's levels —
// payloadBytes that of one payload in the table's uint64 payload array,
// posBytes that of one RS spline point's position and of one PGM
// segment's, slopeBytes that of one PGM segment's slope,
// marginBytes that of one margin code (a PGM data segment and an RMI
// leaf hold two),
// and baseBytes that of one entry of RS's radix base.
const (
	keyBytes     = int(unsafe.Sizeof(core.Key(0)))
	payloadBytes = int(unsafe.Sizeof(uint64(0)))
	posBytes     = int(unsafe.Sizeof(int32(0)))
	slopeBytes   = int(unsafe.Sizeof(float32(0)))
	marginBytes  = int(unsafe.Sizeof(core.Margin(0)))
	baseBytes    = int(unsafe.Sizeof(uint16(0)))
)

// CacheFor sizes the simulated cache for n keys so the paper's regime
// (working set far larger than the LLC) holds at laptop scale: one byte
// of cache per key keeps the ratio near the paper's 3.2 GB data to
// 27.5 MB LLC, within [128 KiB, 4 MiB].
func CacheFor(n int) Config { return Config{cacheBytes: min(max(n, 128<<10), 4<<20)} }

// For wires a built index over keys into m; ok is false for a family
// with no traced form.
func For(idx core.Index, m *Machine, keys []core.Key) (tr Traced, ok bool) {
	d := &dataRegions{m: m, keys: keys, keysReg: m.Alloc(len(keys) * keyBytes), paysReg: m.Alloc(len(keys) * payloadBytes)}
	switch v := idx.(type) {
	case *rmi.Index:
		leaves := (v.NumLeaves() + 1) * v.LeafBytes() // the sentinel too
		return &tracedRMI{d, v, m.Alloc(v.SizeBytes() - leaves), m.Alloc(leaves)}, true
	case *pgm.Index:
		t := &tracedPGM{dataRegions: d, idx: v}
		sizes := v.LevelSizes()
		for _, n := range sizes {
			t.keys = append(t.keys, m.Alloc(n*keyBytes))
			t.slopes = append(t.slopes, m.Alloc(n*slopeBytes))
			t.pos = append(t.pos, m.Alloc(n*posBytes))
		}
		t.margins = m.Alloc(sizes[0] * 2 * marginBytes)
		return t, true
	case *rs.Index:
		np := v.NumPoints()
		base, fine := v.RadixBytes()
		return &tracedRS{d, v, m.Alloc(base), m.Alloc(fine), m.Alloc(np * keyBytes), m.Alloc(np * posBytes)}, true
	case *rbs.Index:
		return &tracedRBS{d, v, m.Alloc(v.SizeBytes())}, true
	case *btree.Index:
		t := &tracedBTree{dataRegions: d, idx: v}
		for _, n := range v.LevelSizes() {
			t.levels = append(t.levels, m.Alloc(n*keyBytes))
		}
		return t, true
	case *art.Index:
		t := &tracedART{dataRegions: d, idx: v}
		for k, n := range v.ArrayBytes() {
			t.arrays[k] = m.Alloc(n)
		}
		t.arrays[4] = d.keysReg
		return t, true
	case *fast.Index:
		t := &tracedFAST{dataRegions: d, idx: v}
		for _, n := range v.LevelSizes() {
			t.levels = append(t.levels, m.Alloc(n*keyBytes))
		}
		return t, true
	case *hashidx.RobinHood:
		return &tracedRobin{d, v, m.Alloc(v.SizeBytes())}, true
	}
	return nil, false
}

// dataRegions holds the simulated placement of the key and payload
// arrays, shared by every traced structure.
type dataRegions struct {
	m       *Machine
	keys    []core.Key
	keysReg Region
	paysReg Region
}

// lastMile simulates the binary search within the bound, touching the
// probed key cache lines and recording the compare branches, then one
// payload read at the final position.
func (d *dataRegions) lastMile(key core.Key, b core.Bound) core.Bound {
	lo, hi := b.Lo, b.Hi
	const site = 0x51 // one static branch site: binary search compare
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		d.m.Access(d.keysReg, mid*keyBytes, keyBytes)
		taken := d.keys[mid] < key
		d.m.recordBranch(site, taken)
		d.m.instr(3)
		if taken {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.keys) {
		d.m.Access(d.paysReg, lo*payloadBytes, payloadBytes)
	}
	return b
}

// ladder charges the probes of search's halving ladder over keys
// [lo, hi) of r, in a search that returned rank: search.Replay names
// the slots the real search compared, and each costs one key load and
// three instructions. The branchy form (search.Rank) also records a
// branch at site on each comparison's real outcome; the mask form
// (search.RankBranchless, site 0) has none to mispredict.
func (m *Machine) ladder(r Region, lo, hi, rank int, site uint32) {
	search.Replay(lo, hi, rank, func(slot int, atMost bool) {
		m.Access(r, slot*keyBytes, keyBytes)
		if site != 0 {
			m.recordBranch(site, atMost)
		}
		m.instr(3)
	})
}

type tracedRMI struct {
	*dataRegions
	idx           *rmi.Index
	model, leaves Region
}

func (t *tracedRMI) Lookup(key core.Key) core.Bound {
	leaf, _, b := t.idx.Explain(key)
	// Stage-1 model: a handful of FLOPs on coefficients that fit a
	// single cache line (hot in any realistic loop), then one dependent
	// load of the leaf model and its successor's lo, one line or two.
	t.m.Access(t.model, 0, t.model.size)
	t.m.instr(8)
	t.touchLeaf(leaf)
	t.m.instr(10)
	return t.lastMile(key, b)
}

// touchLeaf loads one leaf at the stride memory holds the array in and
// the next leaf's lo, its upper clamp, charged at every line those bytes
// span. Both layouts end in lo and two margin codes, so the load runs
// from the leaf to 2·marginBytes short of the next one's end, and no
// line in between holds none of its bytes (the gap is under a line): a
// 16-byte linear leaf at offset 48 mod 64, the last of its line, spans
// two, the other three one.
func (t *tracedRMI) touchLeaf(leaf int) {
	stride := t.idx.LeafBytes()
	t.m.Access(t.leaves, leaf*stride, 2*stride-2*marginBytes)
}

type tracedPGM struct {
	*dataRegions
	idx               *pgm.Index
	keys, slopes, pos []Region // each level's three arrays, data level first
	margins           Region   // the data level's margins, a segment's two side by side
}

func (t *tracedPGM) Lookup(key core.Key) core.Bound {
	return t.lastMile(key, t.idx.Trace(key, t.step))
}

func (t *tracedPGM) step(st pgm.PathStep) {
	// The segment search of this level's window (the whole level at the
	// top), then the segment below the rank: its key, its slope and the
	// two positions its prediction is clamped between, and linear math.
	l, j := st.Level, max(st.Rank-1, 0)
	t.m.ladder(t.keys[l], st.Lo, st.Hi, st.Rank, 0x77)
	t.m.Access(t.keys[l], j*keyBytes, keyBytes)
	t.m.Access(t.slopes[l], j*slopeBytes, slopeBytes)
	t.m.Access(t.pos[l], j*posBytes, min(2, t.pos[l].size/posBytes-j)*posBytes)
	t.m.instr(8)
	if l == 0 {
		// Widen the prediction by the segment's two verified margins.
		t.m.Access(t.margins, j*2*marginBytes, 2*marginBytes)
	}
}

type tracedRS struct {
	*dataRegions
	idx                   *rs.Index
	base, fine, keys, pos Region
}

func (t *tracedRS) Lookup(key core.Key) core.Bound {
	return t.lastMile(key, t.idx.Trace(key, t.step))
}

func (t *tracedRS) step(base, fine, winLo, winHi, rank int) {
	// Radix table probe: for the bucket and the next, a shift, a mask and
	// an add over a load of two adjacent entries from each array.
	t.m.instr(9)
	t.m.Access(t.base, base*baseBytes, 2*baseBytes)
	t.m.Access(t.fine, fine, min(2, t.fine.size-fine))
	// The spline-point search within the window.
	t.m.ladder(t.keys, winLo, winHi, rank, 0x33)
	// Interpolation between the point below the rank and the next:
	// their keys and positions.
	seg := max(rank-1, 0)
	pts := min(2, t.idx.NumPoints()-seg)
	t.m.Access(t.keys, seg*keyBytes, pts*keyBytes)
	t.m.Access(t.pos, seg*posBytes, pts*posBytes)
	t.m.instr(8)
}

type tracedRBS struct {
	*dataRegions
	idx   *rbs.Index
	table Region
}

func (t *tracedRBS) Lookup(key core.Key) core.Bound {
	return t.lastMile(key, t.idx.Trace(key, t.step))
}

func (t *tracedRBS) step(bucket uint64) {
	t.m.instr(3)
	t.m.Access(t.table, int(bucket)*rbs.RadixEntrySizeBytes, 2*rbs.RadixEntrySizeBytes)
}

type tracedBTree struct {
	*dataRegions
	idx    *btree.Index
	levels []Region
}

func (t *tracedBTree) Lookup(key core.Key) core.Bound {
	return t.lastMile(key, t.idx.Trace(key, t.step))
}

func (t *tracedBTree) step(st btree.NodeStep) {
	// IBTree's interpolation reads the node's end keys, then, with x
	// between them, does the float work and compares the predicted
	// slot, a branch; the ladder over what is left is the mask form.
	lvl := t.levels[st.Level]
	base := st.Node * btree.Fanout
	if st.Ends {
		t.m.Access(lvl, base*keyBytes, keyBytes)
		t.m.Access(lvl, (base+min(btree.Fanout, lvl.size/keyBytes-base)-1)*keyBytes, keyBytes)
		t.m.instr(2)
	}
	if st.Probe >= 0 {
		t.m.instr(8)
		t.m.Access(lvl, (base+st.Probe)*keyBytes, keyBytes)
		t.m.recordBranch(0xB3, st.Lo > st.Probe) // taken: x is right of the probe
	}
	t.m.ladder(lvl, base+st.Lo, base+st.Hi, base+st.Rank, 0)
}

type tracedART struct {
	*dataRegions
	idx    *art.Index
	arrays [5]Region // the Node4, Node16, Node48 and Node256 arrays, then the data keys
}

func (t *tracedART) Lookup(key core.Key) core.Bound {
	return t.lastMile(key, t.idx.Trace(key, t.step))
}

// step charges one read at its offset in its array (no read straddles
// a line: the arrays start on one, and each node's header and every
// slot lie within one) and records the compare it feeds, at one site
// per kind of compare.
func (t *tracedART) step(st art.NodeStep) {
	t.m.Access(t.arrays[st.Kind], st.Off, 1)
	if st.Cmp != 0 {
		t.m.recordBranch(0xA0+uint32(st.Cmp), st.Taken)
	}
	t.m.instr(3)
}

type tracedFAST struct {
	*dataRegions
	idx    *fast.Index
	levels []Region
}

func (t *tracedFAST) Lookup(key core.Key) core.Bound {
	return t.lastMile(key, t.idx.Trace(key, t.step))
}

func (t *tracedFAST) step(level, blockStart, blockLen int) {
	// One blocked node: two cache lines of keys, scanned with
	// predictable branches (FAST's SIMD compare is branch-free; model
	// it as cheap instructions).
	t.m.Access(t.levels[level], blockStart*keyBytes, blockLen*keyBytes)
	t.m.instr(blockLen)
}

type tracedRobin struct {
	*dataRegions
	tbl   *hashidx.RobinHood
	slots Region
}

// Lookup replays the probe sequence, then, for a present key, the one
// payload read: a hash hit needs no last-mile search.
func (t *tracedRobin) Lookup(key core.Key) core.Bound {
	b := t.tbl.Trace(key, t.step)
	if b.Hi-b.Lo == 1 {
		t.m.Access(t.paysReg, b.Lo*payloadBytes, payloadBytes)
	}
	return b
}

func (t *tracedRobin) step(home uint64, probes int) {
	t.m.instr(4) // hash
	for p := 0; p < probes; p++ {
		t.m.Access(t.slots, (int(home)+p)*hashidx.SlotSizeBytes, hashidx.SlotSizeBytes)
		t.m.recordBranch(0xB7, p < probes-1)
		t.m.instr(2)
	}
}
