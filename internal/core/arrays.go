package core

import (
	"fmt"
	"unsafe"
)

// Array describes one flat array an index holds: Len elements of Elem
// bytes each. A traced family lists its arrays once, in a fixed order
// (its Arrays method); that list is its SizeBytes, the regions the
// performance-counter simulation lays out, and what the heap audit
// rounds to pages.
type Array struct {
	Name      string
	Elem, Len int
}

// String implements fmt.Stringer: the name, then length × element bytes.
func (a Array) String() string { return fmt.Sprintf("%s %d×%dB", a.Name, a.Len, a.Elem) }

// ArrayOf describes s, at the size its element type occupies.
func ArrayOf[E any](name string, s []E) Array {
	var e E
	return Array{Name: name, Elem: int(unsafe.Sizeof(e)), Len: len(s)}
}

// SizeOf returns the bytes arrays occupy.
func SizeOf(arrays ...Array) int {
	total := 0
	for _, a := range arrays {
		total += a.Elem * a.Len
	}
	return total
}

// Tracer receives the steps of a traced lookup, in the order its
// descent makes them; a family's Trace with a nil Tracer is its Lookup.
// An array is named by its ordinal in the family's Arrays, and the
// ordinal one past the last names the indexed keys themselves.
type Tracer interface {
	// Read is a load of n elements of array a from element i.
	Read(a, i, n int)
	// Search is search.Rank over elements [lo, hi) of array a, which
	// returned rank; site names its compare's branch, and 0 is the
	// branch-free search.RankBranchless.
	Search(a, lo, hi, rank int, site uint32)
	// Compare is a conditional branch at site and its outcome.
	Compare(site uint32, taken bool)
	// Work is n instructions of arithmetic, priced by the family for
	// the step it names.
	Work(n int)
}
