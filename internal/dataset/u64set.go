package dataset

import "math/bits"

// u64set is the dedupe set of the generators: an open-addressed,
// linear-probed table of uint64 with no deletion and no growth. The
// caller states up front how many distinct values it will add and the
// table is sized for a load of at most one half, so a probe chain is a
// slot or two and an insert touches one cache line. Zero marks an empty
// slot; the value 0 itself is tracked beside the table.
type u64set struct {
	slots   []uint64
	shift   uint // 64 - log2(len(slots)): the hash keeps the top bits
	hasZero bool
}

// newU64Set returns a set with room for n distinct values.
func newU64Set(n int) *u64set {
	if n < 1 {
		n = 1
	}
	logCap := bits.Len(uint(2*n - 1)) // smallest power of two >= 2n
	return &u64set{slots: make([]uint64, 1<<logCap), shift: uint(64 - logCap)}
}

// add inserts k and reports whether it was absent. Adding more distinct
// values than the set was sized for is a caller bug (the probe would
// never find an empty slot once the table is full).
func (s *u64set) add(k uint64) bool {
	if k == 0 {
		fresh := !s.hasZero
		s.hasZero = true
		return fresh
	}
	mask := uint64(len(s.slots) - 1)
	// Fibonacci hashing: the generators' values differ mostly in their
	// low bits (cell IDs, offsets into a span), the multiply carries
	// those into the top bits the shift keeps.
	for i := (k * 0x9E3779B97F4A7C15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k
			return true
		case k:
			return false
		}
	}
}
