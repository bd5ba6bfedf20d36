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
)

// Traced replays index lookups against a simulated Machine, producing
// the counter profiles of Section 4.3. Each Lookup runs the index's
// own descent, whose visitor turns every step into simulated accesses,
// followed by the last-mile binary search over the (shared) data
// region, exactly mirroring the paper's measured loop.
type Traced interface {
	// Lookup simulates one full lookup (inference + last-mile search
	// + one payload access) and returns the bound the descent resolved.
	Lookup(key core.Key) core.Bound
}

// keyBytes is the width of one key — of the data array, of PGM's
// segment keys, of RS's spline-point keys and of FAST's levels —
// payloadBytes that of one payload in the table's uint64 payload array,
// posBytes that of one RS spline point's position, of one PGM segment's
// position and of one of its margins, and slopeBytes that of one PGM
// segment's slope.
const (
	keyBytes     = int(unsafe.Sizeof(core.Key(0)))
	payloadBytes = int(unsafe.Sizeof(uint64(0)))
	posBytes     = int(unsafe.Sizeof(int32(0)))
	slopeBytes   = int(unsafe.Sizeof(float64(0)))
)

// CacheFor sizes the simulated cache for n keys so the paper's regime
// (working set far larger than the LLC) holds at laptop scale: one byte
// of cache per key keeps the ratio near the paper's 3.2 GB data to
// 27.5 MB LLC, within [128 KiB, 4 MiB].
func CacheFor(n int) Config { return Config{CacheBytes: min(max(n, 128<<10), 4<<20)} }

// For wires a built index over keys into m; ok is false for a family
// with no traced form.
func For(idx core.Index, m *Machine, keys []core.Key) (tr Traced, ok bool) {
	d := &dataRegions{m: m, keys: keys, keysReg: m.Alloc(len(keys) * keyBytes), paysReg: m.Alloc(len(keys) * payloadBytes)}
	switch v := idx.(type) {
	case *rmi.Index:
		leaves := v.NumLeaves() * v.LeafBytes()
		return &tracedRMI{d, v, m.Alloc(v.SizeBytes() - leaves), m.Alloc(leaves)}, true
	case *pgm.Index:
		t := &tracedPGM{dataRegions: d, idx: v}
		sizes := v.LevelSizes()
		for _, n := range sizes {
			t.keys = append(t.keys, m.Alloc(n*keyBytes))
			t.slopes = append(t.slopes, m.Alloc(n*slopeBytes))
			t.pos = append(t.pos, m.Alloc(n*posBytes))
		}
		t.margins = m.Alloc(sizes[0] * 2 * posBytes)
		return t, true
	case *rs.Index:
		np := v.NumPoints()
		radix := m.Alloc(v.SizeBytes() - np*(keyBytes+posBytes))
		return &tracedRS{d, v, radix, m.Alloc(np * keyBytes), m.Alloc(np * posBytes)}, true
	case *rbs.Index:
		return &tracedRBS{d, v, m.Alloc(v.SizeBytes())}, true
	case *btree.Index:
		t := &tracedBTree{dataRegions: d, idx: v}
		for _, n := range v.LevelSizes() {
			t.levels = append(t.levels, m.Alloc(n*keyBytes))
		}
		return t, true
	case *art.Index:
		return &tracedART{d, v, m.Alloc(v.SizeBytes())}, true
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

// windowSearch simulates a binary search over elements [lo, hi) of r,
// stride bytes apart, reading width bytes of each probed element. The
// direction taken is data dependent; the window is halved.
func (m *Machine) windowSearch(r Region, lo, hi, stride, width int, site uint32) {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		m.Access(r, mid*stride, width)
		m.recordBranch(site, mid&1 == 0)
		m.instr(3)
		if hi-lo <= 1 {
			break
		}
		if mid-lo > hi-mid {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
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
	// load of the leaf model.
	t.m.Access(t.model, 0, t.model.size)
	t.m.instr(8)
	t.touchLeaf(leaf)
	t.m.instr(10)
	return t.lastMile(key, b)
}

// touchLeaf loads one leaf at the stride memory holds the array in.
func (t *tracedRMI) touchLeaf(leaf int) {
	stride := t.idx.LeafBytes()
	t.m.Access(t.leaves, leaf*stride, stride)
}

type tracedPGM struct {
	*dataRegions
	idx               *pgm.Index
	keys, slopes, pos []Region // each level's three arrays, data level first
	margins           Region   // the data level's margins, a segment's two side by side
}

func (t *tracedPGM) Lookup(key core.Key) core.Bound {
	// The descent starts with a search of the whole top level.
	top := t.keys[len(t.keys)-1]
	t.m.windowSearch(top, 0, top.size/keyBytes, keyBytes, keyBytes, 0x77)
	return t.lastMile(key, t.idx.Trace(key, t.step))
}

func (t *tracedPGM) step(st pgm.PathStep) {
	// Evaluate the segment at this level: its key, its slope and the
	// two positions its prediction is clamped between, then linear math.
	l, j := st.Level, st.Seg
	t.m.Access(t.keys[l], j*keyBytes, keyBytes)
	t.m.Access(t.slopes[l], j*slopeBytes, slopeBytes)
	t.m.Access(t.pos[l], j*posBytes, min(2, t.pos[l].size/posBytes-j)*posBytes)
	t.m.instr(8)
	if l == 0 {
		// Widen the prediction by the segment's two verified margins.
		t.m.Access(t.margins, j*2*posBytes, 2*posBytes)
		return
	}
	// Binary search of the window in the level below: its segment keys.
	t.m.windowSearch(t.keys[l-1], st.WinLo, st.WinHi, keyBytes, keyBytes, 0x77)
}

type tracedRS struct {
	*dataRegions
	idx              *rs.Index
	radix, keys, pos Region
}

func (t *tracedRS) Lookup(key core.Key) core.Bound {
	return t.lastMile(key, t.idx.Trace(key, t.step))
}

func (t *tracedRS) step(bucket uint64, winLo, winHi, seg int) {
	// Radix table probe: a shift plus one load (two adjacent entries).
	t.m.instr(3)
	t.m.Access(t.radix, int(bucket)*rs.RadixEntrySizeBytes, 2*rs.RadixEntrySizeBytes)
	// Binary search the spline-point keys within the window.
	t.m.windowSearch(t.keys, winLo, winHi, keyBytes, keyBytes, 0x33)
	// Interpolation between points seg and seg+1: their keys and positions.
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

func (t *tracedBTree) step(level, node int) {
	// The in-node search halves the node's (up to 32) keys of its level
	// array with no data-dependent branch: about five probes of three
	// instructions each, within the node's own lines.
	lvl := t.levels[level]
	lo := node * btree.Fanout
	for n := min(btree.Fanout, lvl.size/keyBytes-lo); n > 1; n -= n / 2 {
		t.m.Access(lvl, (lo+n/2)*keyBytes, keyBytes)
		t.m.instr(3)
	}
}

type tracedART struct {
	*dataRegions
	idx  *art.Index
	heap Region
}

func (t *tracedART) Lookup(key core.Key) core.Bound {
	return t.lastMile(key, t.idx.Trace(key, t.step))
}

func (t *tracedART) step(st art.NodeStep) {
	// Nodes live at one line per id in the simulated heap, and a
	// visit reads a node's first line.
	line := int(t.m.lineSz)
	off := max((int(st.ID)*line)%(t.heap.size-st.SizeBytes), 0)
	t.m.Access(t.heap, off, min(st.SizeBytes, line))
	t.m.recordBranch(0xA1, st.ID&1 == 0)
	t.m.instr(6)
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
