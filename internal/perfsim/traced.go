package perfsim

import (
	"unsafe"

	"repro/internal/core"
	"repro/internal/hashidx"
	"repro/internal/search"
)

// Traced replays index lookups against a simulated Machine, producing
// the counter profiles of Section 4.3. Each Lookup runs the index's
// own descent, whose Tracer steps become simulated accesses to the
// arrays the index describes — for a search, the very slots it
// compared (search.Replay) — followed by the last-mile binary search
// over the (shared) data region, mirroring the paper's measured loop.
type Traced interface {
	// Lookup simulates one full lookup (inference + last-mile search
	// + one payload access) and returns the bound the descent resolved.
	Lookup(key core.Key) core.Bound
}

// keyBytes is the width of one key of the data array, payloadBytes that
// of one payload in the table's uint64 payload array.
const (
	keyBytes     = int(unsafe.Sizeof(core.Key(0)))
	payloadBytes = int(unsafe.Sizeof(uint64(0)))
)

// CacheFor sizes the simulated cache for n keys so the paper's regime
// (working set far larger than the LLC) holds at laptop scale: one byte
// of cache per key keeps the ratio near the paper's 3.2 GB data to
// 27.5 MB LLC, within [128 KiB, 4 MiB].
func CacheFor(n int) Config { return Config{cacheBytes: min(max(n, 128<<10), 4<<20)} }

// traceable is a family whose lookups perfsim replays: the arrays it
// holds, and Lookup's descent reporting every step to a core.Tracer.
type traceable interface {
	core.Index
	Arrays() []core.Array
	Trace(key core.Key, t core.Tracer) core.Bound
}

// For wires a built index over keys into m; ok is false for a family
// with no traced form. The data keys and payloads take the first two
// regions, then each array the index describes one, in its order.
func For(idx core.Index, m *Machine, keys []core.Key) (tr Traced, ok bool) {
	v, ok := idx.(traceable)
	if !ok {
		return nil, false
	}
	data := array{m.Alloc(len(keys) * keyBytes), keyBytes}
	t := &traced{m: m, idx: v, keys: keys, pays: m.Alloc(len(keys) * payloadBytes)}
	for _, a := range v.Arrays() {
		t.arrays = append(t.arrays, array{m.Alloc(a.Elem * a.Len), a.Elem})
	}
	t.arrays = append(t.arrays, data) // the ordinal past the index's arrays
	// A hash hit is the key's position: it needs no last-mile search.
	_, t.point = idx.(*hashidx.RobinHood)
	return t, true
}

// traced is one index wired into a Machine; it is the Tracer its
// descent reports to.
type traced struct {
	m      *Machine
	idx    traceable
	keys   []core.Key
	pays   Region
	arrays []array // the index's arrays, then the data keys
	point  bool
}

// array is the region of one described array and its element width.
type array struct {
	Region
	elem int
}

func (t *traced) Lookup(key core.Key) core.Bound {
	b := t.idx.Trace(key, t)
	if !t.point {
		t.lastMile(key, b)
	} else if b.Width() == 1 {
		t.m.Access(t.pays, b.Lo*payloadBytes, payloadBytes)
	}
	return b
}

// lastMile simulates the binary search within the bound, touching the
// probed key cache lines and recording the compare branches, then one
// payload read at the final position.
func (t *traced) lastMile(key core.Key, b core.Bound) {
	lo, hi := b.Lo, b.Hi
	data := t.arrays[len(t.arrays)-1].Region
	const site = 0x51 // one static branch site: binary search compare
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		t.m.Access(data, mid*keyBytes, keyBytes)
		taken := t.keys[mid] < key
		t.m.recordBranch(site, taken)
		t.m.instr(3)
		if taken {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.keys) {
		t.m.Access(t.pays, lo*payloadBytes, payloadBytes)
	}
}

// Read charges one load of n elements, at every line they span.
func (t *traced) Read(a, i, n int) {
	r := t.arrays[a]
	t.m.Access(r.Region, i*r.elem, n*r.elem)
}

// Search charges the probes of search's halving ladder: search.Replay
// names the slots the real search compared, and each costs one load
// and three instructions. The branchy form (search.Rank) also records
// a branch at site on each comparison's real outcome; the mask form
// (search.RankBranchless, site 0) has none to mispredict.
func (t *traced) Search(a, lo, hi, rank int, site uint32) {
	r := t.arrays[a]
	search.Replay(lo, hi, rank, func(slot int, atMost bool) {
		t.m.Access(r.Region, slot*r.elem, r.elem)
		if site != 0 {
			t.m.recordBranch(site, atMost)
		}
		t.m.instr(3)
	})
}

// Compare records a branch at site.
func (t *traced) Compare(site uint32, taken bool) { t.m.recordBranch(site, taken) }

// Work counts n ALU instructions.
func (t *traced) Work(n int) { t.m.instr(n) }
