package perfsim

import (
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
// the counter profiles of Section 4.3. Each Lookup performs the
// structure's inference accesses followed by the last-mile binary
// search over the (shared) data region, exactly mirroring the paper's
// measured loop.
type Traced interface {
	// Lookup simulates one full lookup (inference + last-mile search
	// + one payload access) and returns the bound it resolved.
	Lookup(key core.Key) core.Bound
	Name() string
}

// dataRegions holds the simulated placement of the key and payload
// arrays, shared by every traced structure.
type dataRegions struct {
	m       *Machine
	keys    []core.Key
	keysReg Region
	paysReg Region
}

func newDataRegions(m *Machine, keys []core.Key) *dataRegions {
	return &dataRegions{
		m:       m,
		keys:    keys,
		keysReg: m.Alloc(len(keys) * 8),
		paysReg: m.Alloc(len(keys) * 8),
	}
}

// lastMile simulates the binary search within the bound, touching the
// probed key cache lines and recording the compare branches, then one
// payload read at the final position.
func (d *dataRegions) lastMile(key core.Key, b core.Bound) int {
	lo, hi := b.Lo, b.Hi
	const site = 0x51 // one static branch site: binary search compare
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		d.m.Access(d.keysReg, mid*8, 8)
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
		d.m.Access(d.paysReg, lo*8, 8)
	}
	return lo
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

// --- RMI ---

type tracedRMI struct {
	idx    *rmi.Index
	data   *dataRegions
	model  Region
	leaves Region
	m      *Machine
}

// NewTracedRMI wires an RMI into the machine.
func NewTracedRMI(idx *rmi.Index, m *Machine, keys []core.Key) Traced {
	leaves := idx.NumLeaves() * idx.LeafBytes()
	return &tracedRMI{
		idx:    idx,
		data:   newDataRegions(m, keys),
		model:  m.Alloc(idx.SizeBytes() - leaves),
		leaves: m.Alloc(leaves),
		m:      m,
	}
}

func (t *tracedRMI) Name() string { return "RMI" }

func (t *tracedRMI) Lookup(key core.Key) core.Bound {
	leaf, _, b := t.idx.Explain(key)
	// Stage-1 model: a handful of FLOPs on coefficients that fit a
	// single cache line (hot in any realistic loop), then one dependent
	// load of the leaf model.
	t.m.Access(t.model, 0, t.model.size)
	t.m.instr(8)
	t.touchLeaf(leaf)
	t.m.instr(10)
	t.data.lastMile(key, b)
	return b
}

// touchLeaf loads one leaf at the stride memory holds the array in.
func (t *tracedRMI) touchLeaf(leaf int) {
	stride := t.idx.LeafBytes()
	t.m.Access(t.leaves, leaf*stride, stride)
}

// --- PGM ---

type tracedPGM struct {
	idx     *pgm.Index
	data    *dataRegions
	levels  []Region
	margins Region // the data level's dataErrLo array, then its dataErrHi
	m       *Machine
}

// NewTracedPGM wires a PGM index into the machine.
func NewTracedPGM(idx *pgm.Index, m *Machine, keys []core.Key) Traced {
	sizes := idx.LevelSizes()
	t := &tracedPGM{idx: idx, data: newDataRegions(m, keys), m: m}
	for _, n := range sizes {
		t.levels = append(t.levels, m.Alloc(n*pgm.SegmentSizeBytes))
	}
	t.margins = m.Alloc(sizes[0] * pgm.MarginSizeBytes)
	return t
}

func (t *tracedPGM) Name() string { return "PGM" }

func (t *tracedPGM) Lookup(key core.Key) core.Bound {
	steps, b := t.idx.Explain(key)
	const site = 0x77
	for _, st := range steps {
		// Evaluate the segment at this level: one load + linear math.
		t.m.Access(t.levels[st.Level], st.Seg*pgm.SegmentSizeBytes, pgm.SegmentSizeBytes)
		t.m.instr(8)
		if st.Level == 0 {
			// Widen the prediction by the segment's two verified margins.
			const half = pgm.MarginSizeBytes / 2
			t.m.Access(t.margins, st.Seg*half, half)
			t.m.Access(t.margins, t.margins.size/2+st.Seg*half, half)
		} else {
			// Binary search of the window in the level below: touch the
			// probed segments' first keys.
			t.m.windowSearch(t.levels[st.Level-1], st.WinLo, st.WinHi, pgm.SegmentSizeBytes, 8, site)
		}
	}
	t.data.lastMile(key, b)
	return b
}

// --- RS ---

type tracedRS struct {
	idx    *rs.Index
	data   *dataRegions
	radix  Region
	points Region
	m      *Machine
}

// NewTracedRS wires a RadixSpline into the machine.
func NewTracedRS(idx *rs.Index, m *Machine, keys []core.Key) Traced {
	return &tracedRS{
		idx:    idx,
		data:   newDataRegions(m, keys),
		radix:  m.Alloc(idx.SizeBytes() - idx.NumPoints()*rs.PointSizeBytes),
		points: m.Alloc(idx.NumPoints() * rs.PointSizeBytes),
		m:      m,
	}
}

func (t *tracedRS) Name() string { return "RS" }

func (t *tracedRS) Lookup(key core.Key) core.Bound {
	e := t.idx.Explain(key)
	// Radix table probe: a shift plus one load (two adjacent entries).
	t.m.instr(3)
	t.m.Access(t.radix, int(e.Bucket)*4, 8)
	// Binary search the spline points within the window.
	const site = 0x33
	t.m.windowSearch(t.points, e.WinLo, e.WinHi, rs.PointSizeBytes, rs.PointSizeBytes, site)
	// Interpolation between the two spline points (already touched).
	t.m.instr(8)
	t.data.lastMile(key, e.Bound)
	return e.Bound
}

// --- RBS ---

type tracedRBS struct {
	idx   *rbs.Index
	data  *dataRegions
	table Region
	m     *Machine
}

// NewTracedRBS wires a radix binary search table into the machine.
func NewTracedRBS(idx *rbs.Index, m *Machine, keys []core.Key) Traced {
	return &tracedRBS{
		idx:   idx,
		data:  newDataRegions(m, keys),
		table: m.Alloc(idx.SizeBytes()),
		m:     m,
	}
}

func (t *tracedRBS) Name() string { return "RBS" }

func (t *tracedRBS) Lookup(key core.Key) core.Bound {
	b := t.idx.Lookup(key)
	t.m.instr(3)
	t.m.Access(t.table, int(t.idx.Bucket(key))*4, 8)
	t.data.lastMile(key, b)
	return b
}

// --- B+tree / IBTree ---

type tracedBTree struct {
	idx       *btree.Index
	data      *dataRegions
	nodes     Region
	nodeBytes int
	m         *Machine
	path      []int32
	name      string
}

// NewTracedBTree wires a B+tree (or IBTree) into the machine. The tree
// accounts for its size per entry and per node, not per node alone, so
// the nodes are laid out at the mean stride that accounting gives them,
// rounded down to whole cache lines: nodes are line-aligned, as the STX
// node size class the tree's fanout follows is.
func NewTracedBTree(idx *btree.Index, m *Machine, keys []core.Key) Traced {
	line := int(m.lineSz)
	return &tracedBTree{
		idx:       idx,
		data:      newDataRegions(m, keys),
		nodes:     m.Alloc(idx.SizeBytes()),
		nodeBytes: idx.SizeBytes() / idx.NumNodes() / line * line,
		m:         m,
		name:      idx.Name(),
	}
}

func (t *tracedBTree) Name() string { return t.name }

func (t *tracedBTree) Lookup(key core.Key) core.Bound {
	const site = 0x91
	t.path = t.idx.PathIDs(key, t.path[:0])
	for _, id := range t.path {
		// In-node binary search over up to 32 keys: ~5 compares
		// touching about two of the node's cache lines.
		base := int(id) * t.nodeBytes
		t.m.Access(t.nodes, base, 64)
		t.m.Access(t.nodes, base+128, 64)
		for s := 0; s < 5; s++ {
			t.m.recordBranch(site, (int(id)+s)&1 == 0)
			t.m.instr(3)
		}
	}
	b := t.idx.Lookup(key)
	t.data.lastMile(key, b)
	return b
}

// --- ART ---

type tracedART struct {
	idx  *art.Index
	data *dataRegions
	heap Region
	m    *Machine
}

// NewTracedART wires an ART into the machine.
func NewTracedART(idx *art.Index, m *Machine, keys []core.Key) Traced {
	return &tracedART{
		idx:  idx,
		data: newDataRegions(m, keys),
		heap: m.Alloc(idx.SizeBytes()),
		m:    m,
	}
}

func (t *tracedART) Name() string { return "ART" }

func (t *tracedART) Lookup(key core.Key) core.Bound {
	const site = 0xA1
	heapSize := t.heap.size
	offset := 0
	_, pos, found := t.idx.IndexTree().CeilingPath(key, func(st art.NodeStep) {
		// Nodes live at id-proportional offsets in the simulated heap.
		off := (int(st.ID) * 64) % (heapSize - st.SizeBytes)
		if off < 0 {
			off = 0
		}
		t.m.Access(t.heap, off, min(st.SizeBytes, 64))
		t.m.recordBranch(site, st.ID&1 == 0)
		t.m.instr(6)
		offset += st.SizeBytes
	})
	var b core.Bound
	if !found {
		b = core.Bound{Lo: int(t.idx.MaxPos()) + 1, Hi: t.idx.N()}.Clamp(t.idx.N())
	} else {
		lo := int(pos) - t.idx.Stride() + 1
		if lo < 0 {
			lo = 0
		}
		b = core.Bound{Lo: lo, Hi: int(pos) + 1}
	}
	t.data.lastMile(key, b)
	return b
}

// --- FAST ---

type tracedFAST struct {
	idx    *fast.Index
	data   *dataRegions
	levels []Region
	m      *Machine
	n      int
	stride int
}

// NewTracedFAST wires a FAST tree into the machine.
func NewTracedFAST(idx *fast.Index, m *Machine, keys []core.Key) Traced {
	t := &tracedFAST{idx: idx, data: newDataRegions(m, keys), m: m,
		n: len(keys), stride: idx.Stride()}
	for _, l := range idx.IndexTree().LevelLens() {
		t.levels = append(t.levels, m.Alloc(l*8))
	}
	return t
}

func (t *tracedFAST) Name() string { return "FAST" }

func (t *tracedFAST) Lookup(key core.Key) core.Bound {
	t.idx.IndexTree().CeilingPath(key, func(level, blockStart, blockLen int) {
		// One blocked node: two cache lines of keys, scanned with
		// predictable branches (FAST's SIMD compare is branch-free;
		// model it as cheap instructions).
		t.m.Access(t.levels[level], blockStart*8, blockLen*8)
		t.m.instr(blockLen)
	})
	b := t.idx.Lookup(key)
	t.data.lastMile(key, b)
	return b
}

// --- RobinHood ---

type tracedRobin struct {
	tbl   *hashidx.RobinHood
	data  *dataRegions
	slots Region
	m     *Machine
	n     int
}

// NewTracedRobin wires a RobinHood table into the machine.
func NewTracedRobin(tbl *hashidx.RobinHood, m *Machine, keys []core.Key) Traced {
	return &tracedRobin{
		tbl:   tbl,
		data:  newDataRegions(m, keys),
		slots: m.Alloc(tbl.SizeBytes()),
		m:     m,
		n:     len(keys),
	}
}

func (t *tracedRobin) Name() string { return "RobinHash" }

func (t *tracedRobin) Lookup(key core.Key) core.Bound {
	home, probes, found := t.tbl.Probe(key)
	t.m.instr(4) // hash
	const site = 0xB7
	for p := 0; p < probes; p++ {
		t.m.Access(t.slots, (int(home)+p)*hashidx.SlotSizeBytes, hashidx.SlotSizeBytes)
		t.m.recordBranch(site, p < probes-1)
		t.m.instr(2)
	}
	if !found {
		return core.FullBound(t.n)
	}
	pos, _ := t.tbl.Get(key)
	t.m.Access(t.data.paysReg, int(pos)*8, 8)
	return core.Bound{Lo: int(pos), Hi: int(pos) + 1}
}
