package dataset

import "repro/internal/core"

// sortKeys sorts keys ascending with a least-significant-digit radix
// sort on bytes. One pass counts all eight byte histograms; a byte that
// is the same in every key (the top two of osm's 48-bit cells) moves
// nothing and is skipped, every other byte is one stable scatter
// between keys and a scratch copy. On the generators' two million
// random keys that is six to eight sequential sweeps against the ~21
// compare-and-swap levels of a comparison sort.
func sortKeys(keys []core.Key) {
	n := len(keys)
	if n < 2 {
		return
	}
	var count [8][256]int
	for _, k := range keys {
		for b := range count {
			count[b][byte(k>>(8*b))]++
		}
	}
	src, dst := keys, make([]core.Key, n)
	for b := range count {
		c := &count[b]
		if c[byte(src[0]>>(8*b))] == n {
			continue // constant byte
		}
		// Counts become the first output slot of each byte value.
		at := 0
		for v, m := range c {
			c[v] = at
			at += m
		}
		shift := 8 * b
		for _, k := range src {
			v := byte(k >> shift)
			dst[c[v]] = k
			c[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}
