package dataset

// hilbertD2 maps a 2-D point to its distance along a Hilbert curve of
// the given order (order bits per dimension, 1..32, so the curve visits
// 2^(2*order) cells); bits of x and y above the order are ignored. The
// osm dataset generator uses it to project clustered 2-D locations into
// one dimension, reproducing the locally-erratic CDF the paper
// attributes to OSM's Hilbert-projected cell IDs.
//
// The curve is the Lam–Shapiro one: at each level, from the top bit
// down, the quadrant (rx, ry) contributes the base-4 digit (3*rx)^ry
// and then rotates the frame for the levels below — a swap of x and y
// when ry is 0, preceded by a reflection of both when rx is also 1.
// Reflections and swaps commute, so all the frame ever remembers is two
// parities: four states. hilbertTab runs that machine four levels at a
// time, so the walk is order/4 dependent loads from a 2 KB table
// instead of `order` rounds of data-dependent branches.
func hilbertD2(order uint, x, y uint64) uint64 {
	mask := uint64(1)<<order - 1
	x, y = x&mask, y&mask
	// Pad the order to a multiple of four with zero bits on top. A zero
	// level emits digit 0 and swaps, so an even pad leaves the frame as
	// it was and an odd pad enters the real levels swapped.
	steps := (order + 3) / 4
	st := uint16((steps*4-order)&hilbertSwap) << 8
	var d uint64
	for sh := 4 * steps; sh > 0; {
		sh -= 4
		e := hilbertTab[st|uint16(x>>sh&15)<<4|uint16(y>>sh&15)]
		d = d<<8 | uint64(e&0xff)
		st = e & 0x300
	}
	return d
}

// The frame states of the Hilbert walk, as a bit set.
const (
	hilbertSwap    = 1 // x and y are exchanged
	hilbertReflect = 2 // both coordinates are complemented
)

// hilbertTab[state<<8 | xNibble<<4 | yNibble] holds the eight curve
// bits those four levels emit in its low byte and the state they leave
// behind in bits 8–9, already in index position.
var hilbertTab = func() (tab [4 << 8]uint16) {
	for i := range tab {
		st, xn, yn := i>>8, i>>4&15, i&15
		var d int
		for bit := 3; bit >= 0; bit-- {
			rx, ry := xn>>bit&1, yn>>bit&1
			if st&hilbertReflect != 0 {
				rx, ry = rx^1, ry^1
			}
			if st&hilbertSwap != 0 {
				rx, ry = ry, rx
			}
			d = d<<2 | ((3 * rx) ^ ry)
			if ry == 0 {
				st ^= hilbertSwap
				if rx == 1 {
					st ^= hilbertReflect
				}
			}
		}
		tab[i] = uint16(st<<8 | d)
	}
	return tab
}()
