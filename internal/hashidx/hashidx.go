// Package hashidx implements the two hash-table baselines of Table 2:
// a RobinHood open-addressing table and a bucketized Cuckoo map.
//
// Hash tables answer point lookups only (they do not support lower
// bound queries, as the paper discusses); their core.Index adapters
// return an exact single-position bound for present keys and the full
// bound for absent ones. The paper's SIMD bucket probes in the Cuckoo
// map are replaced by scalar 4-slot scans (DESIGN.md substitution 5).
package hashidx

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// hash1 is Fibonacci multiplicative hashing.
func hash1(x uint64) uint64 {
	return x * 0x9E3779B97F4A7C15
}

// hash2 is a second independent mix (splitmix64 finalizer).
func hash2(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// RobinHood is an open-addressing hash table with Robin Hood
// displacement: on collision, the entry farther from its home slot
// wins, keeping probe-length variance low. It is the point index
// RobinHoodBuilder builds.
type RobinHood struct {
	keys []uint64
	vals []int32
	dist []int8 // probe distance from home slot; -1 = empty
	mask uint64
	n    int // data size: the full bound of an absent key
}

// maxProbe caps the stored displacement; tables sized from the load
// factor below stay far under it.
const maxProbe = 120

// newRobinHood builds a table sized for n entries at the given load
// factor.
func newRobinHood(n int, loadFactor float64) (*RobinHood, error) {
	if loadFactor <= 0 || loadFactor > 1 {
		return nil, fmt.Errorf("hashidx: invalid load factor %f", loadFactor)
	}
	capacity := 16
	for float64(capacity)*loadFactor < float64(n) {
		capacity <<= 1
	}
	t := &RobinHood{
		keys: make([]uint64, capacity),
		vals: make([]int32, capacity),
		dist: make([]int8, capacity),
		mask: uint64(capacity - 1),
		n:    n,
	}
	for i := range t.dist {
		t.dist[i] = -1
	}
	return t, nil
}

// insert adds key -> val. Existing keys are overwritten.
func (t *RobinHood) insert(key uint64, val int32) {
	slot := hash1(key) & t.mask
	d := int8(0)
	for {
		if t.dist[slot] < 0 {
			t.keys[slot], t.vals[slot], t.dist[slot] = key, val, d
			return
		}
		if t.keys[slot] == key {
			t.vals[slot] = val
			return
		}
		if t.dist[slot] < d {
			// Robin Hood swap: displace the richer entry.
			t.keys[slot], key = key, t.keys[slot]
			t.vals[slot], val = val, t.vals[slot]
			t.dist[slot], d = d, t.dist[slot]
		}
		slot = (slot + 1) & t.mask
		d++
		if d >= maxProbe {
			t.growAndReinsert(key, val)
			return
		}
	}
}

func (t *RobinHood) growAndReinsert(key uint64, val int32) {
	old := *t
	capacity := len(old.keys) * 2
	t.keys = make([]uint64, capacity)
	t.vals = make([]int32, capacity)
	t.dist = make([]int8, capacity)
	t.mask = uint64(capacity - 1)
	for i := range t.dist {
		t.dist[i] = -1
	}
	for i, d := range old.dist {
		if d >= 0 {
			t.insert(old.keys[i], old.vals[i])
		}
	}
	t.insert(key, val)
}

// get returns the value stored for key. A non-nil tr sees its probes
// (see trace).
func (t *RobinHood) get(key uint64, tr core.Tracer) (val int32, ok bool) {
	home := hash1(key) & t.mask
	slot, d := home, int8(0)
	for ; d < maxProbe; d++ {
		sd := t.dist[slot]
		if sd < 0 || sd < d {
			// An entry poorer than us would have displaced anything
			// here: the key is absent.
			break
		}
		if t.keys[slot] == key {
			val, ok = t.vals[slot], true
			break
		}
		slot = (slot + 1) & t.mask
	}
	if tr != nil {
		t.trace(tr, home, int(d), ok)
	}
	return val, ok
}

// trace reports get's probes from slot home, the last at distance d,
// in arrays as Arrays orders them (keys, vals, dist). Each probe reads
// dist, and keys where the distance check passed: every probe but the
// last, and the last on a hit or when the probe cap ran out. A hit then
// reads vals.
func (t *RobinHood) trace(tr core.Tracer, home uint64, d int, hit bool) {
	tr.Work(4) // the hash
	probes, keyReads := min(d+1, maxProbe), d
	if hit {
		keyReads++
	}
	slot := 0
	for p := range probes {
		slot = int((home + uint64(p)) & t.mask)
		tr.Read(2, slot, 1)
		if p < keyReads {
			tr.Read(0, slot, 1)
		}
		tr.Compare(0xB7, p < probes-1) // taken: the probe goes on
		tr.Work(2)                     // the next slot
	}
	if hit {
		tr.Read(1, slot, 1)
	}
}

// Lookup implements core.Index.
func (t *RobinHood) Lookup(key core.Key) core.Bound { return t.Trace(key, nil) }

// Trace is Lookup's descent: an exact bound for a present key, the full
// bound otherwise. A non-nil tr is get's tracer, the path the
// performance-counter simulation replays.
func (t *RobinHood) Trace(key core.Key, tr core.Tracer) core.Bound {
	if pos, ok := t.get(key, tr); ok {
		return core.Bound{Lo: int(pos), Hi: int(pos) + 1}
	}
	return core.FullBound(t.n)
}

// Name implements core.Index.
func (t *RobinHood) Name() string { return "RobinHash" }

// Arrays describes the table: its keys, vals and dist arrays.
func (t *RobinHood) Arrays() []core.Array {
	return []core.Array{core.ArrayOf("keys", t.keys), core.ArrayOf("vals", t.vals), core.ArrayOf("dist", t.dist)}
}

// SizeBytes implements core.Index.
func (t *RobinHood) SizeBytes() int { return core.SizeOf(t.Arrays()...) }

// cuckoo is a bucketized cuckoo hash table: two candidate buckets of
// four slots each per key. It is the point index CuckooBuilder builds.
type cuckoo struct {
	keys    []uint64 // nBuckets*4 slots
	vals    []int32
	used    []bool
	nBucket uint64
	rng     uint64
	n       int // data size: the full bound of an absent key
}

const cuckooSlots = 4
const maxKicks = 500

// newCuckoo builds a table sized for n entries at the given load
// factor.
func newCuckoo(n int, loadFactor float64) (*cuckoo, error) {
	if loadFactor <= 0 || loadFactor > 1 {
		return nil, fmt.Errorf("hashidx: invalid load factor %f", loadFactor)
	}
	buckets := uint64(1)
	for float64(buckets*cuckooSlots)*loadFactor < float64(n) {
		buckets <<= 1
	}
	return newCuckooBuckets(buckets, n), nil
}

func newCuckooBuckets(buckets uint64, n int) *cuckoo {
	return &cuckoo{
		keys:    make([]uint64, buckets*cuckooSlots),
		vals:    make([]int32, buckets*cuckooSlots),
		used:    make([]bool, buckets*cuckooSlots),
		nBucket: buckets,
		rng:     0x853C49E6748FEA9B,
		n:       n,
	}
}

func (t *cuckoo) buckets(key uint64) (uint64, uint64) {
	b1 := hash1(key) & (t.nBucket - 1)
	b2 := hash2(key) & (t.nBucket - 1)
	return b1, b2
}

func (t *cuckoo) nextRand() uint64 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// insert adds key -> val; existing keys are overwritten.
func (t *cuckoo) insert(key uint64, val int32) {
	if t.update(key, val) {
		return
	}
	for kick := 0; kick < maxKicks; kick++ {
		b1, b2 := t.buckets(key)
		if t.place(b1, key, val) || t.place(b2, key, val) {
			return
		}
		// Evict a random slot from a random candidate bucket.
		b := b1
		if t.nextRand()&1 == 0 {
			b = b2
		}
		slot := b*cuckooSlots + t.nextRand()%cuckooSlots
		key, t.keys[slot] = t.keys[slot], key
		val, t.vals[slot] = t.vals[slot], val
	}
	// Persistent failure: grow and rehash.
	t.grow()
	t.insert(key, val)
}

func (t *cuckoo) update(key uint64, val int32) bool {
	b1, b2 := t.buckets(key)
	for _, b := range [2]uint64{b1, b2} {
		base := b * cuckooSlots
		for s := uint64(0); s < cuckooSlots; s++ {
			if t.used[base+s] && t.keys[base+s] == key {
				t.vals[base+s] = val
				return true
			}
		}
	}
	return false
}

func (t *cuckoo) place(b uint64, key uint64, val int32) bool {
	base := b * cuckooSlots
	for s := uint64(0); s < cuckooSlots; s++ {
		if !t.used[base+s] {
			t.keys[base+s], t.vals[base+s], t.used[base+s] = key, val, true
			return true
		}
	}
	return false
}

func (t *cuckoo) grow() {
	old := *t
	*t = *newCuckooBuckets(old.nBucket*2, old.n)
	for i, u := range old.used {
		if u {
			t.insert(old.keys[i], old.vals[i])
		}
	}
}

// get returns the value stored for key.
func (t *cuckoo) get(key uint64) (int32, bool) {
	b1, b2 := t.buckets(key)
	for _, b := range [2]uint64{b1, b2} {
		base := b * cuckooSlots
		for s := uint64(0); s < cuckooSlots; s++ {
			if t.used[base+s] && t.keys[base+s] == key {
				return t.vals[base+s], true
			}
		}
	}
	return 0, false
}

// Lookup implements core.Index: an exact bound for a present key, the
// full bound otherwise.
func (t *cuckoo) Lookup(key core.Key) core.Bound {
	if pos, ok := t.get(key); ok {
		return core.Bound{Lo: int(pos), Hi: int(pos) + 1}
	}
	return core.FullBound(t.n)
}

// Name implements core.Index.
func (t *cuckoo) Name() string { return "CuckooMap" }

// arrays describes the table: its keys, vals and used arrays.
func (t *cuckoo) arrays() []core.Array {
	return []core.Array{core.ArrayOf("keys", t.keys), core.ArrayOf("vals", t.vals), core.ArrayOf("used", t.used)}
}

// SizeBytes implements core.Index.
func (t *cuckoo) SizeBytes() int { return core.SizeOf(t.arrays()...) }

// The paper's load factors, the ones it found maximize each table's
// lookup speed.
const (
	RobinHoodLoadFactor = 0.25
	CuckooLoadFactor    = 0.99
)

// RobinHoodBuilder builds a RobinHood point index at
// RobinHoodLoadFactor, mapping each key to its first (lower-bound)
// position.
type RobinHoodBuilder struct{}

// Name implements core.Builder.
func (RobinHoodBuilder) Name() string { return "RobinHash" }

// Build implements core.Builder.
func (RobinHoodBuilder) Build(keys []core.Key) (core.Index, error) {
	if len(keys) == 0 {
		return nil, errors.New("hashidx: empty key set")
	}
	t, err := newRobinHood(len(keys), RobinHoodLoadFactor)
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		if i > 0 && keys[i-1] == k {
			continue // keep the lower-bound position for duplicates
		}
		t.insert(k, int32(i))
	}
	return t, nil
}

// CuckooBuilder builds a Cuckoo-backed point index at
// CuckooLoadFactor.
type CuckooBuilder struct{}

// Name implements core.Builder.
func (CuckooBuilder) Name() string { return "CuckooMap" }

// Build implements core.Builder.
func (CuckooBuilder) Build(keys []core.Key) (core.Index, error) {
	if len(keys) == 0 {
		return nil, errors.New("hashidx: empty key set")
	}
	t, err := newCuckoo(len(keys), CuckooLoadFactor)
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		if i > 0 && keys[i-1] == k {
			continue
		}
		t.insert(k, int32(i))
	}
	return t, nil
}
