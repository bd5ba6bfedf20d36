package dataset

import "repro/internal/core"

// sortKeys sorts keys ascending with a least-significant-digit radix
// sort on bytes, chunk-wise (core.Parallel). One pass counts all eight
// byte histograms of every range; a byte that is the same in every key
// (the top two of osm's 48-bit cells) moves nothing and is skipped,
// every other byte is one stable scatter between keys and a scratch
// copy. A scatter gives every range its own run of output slots per
// byte value: the value's slots start after those of every smaller
// value and, among the value's, after those of every earlier range — so
// each range scatters on its own and the result is the one a single
// sweep would write. The ranges of the source are recounted before
// every scatter but the first, since the one before has moved the keys
// (a single range's count is the total).
func sortKeys(keys []core.Key) {
	n := len(keys)
	if n < 2 {
		return
	}
	hists := core.Parallel(n, func(_, lo, hi int) *[8][256]int {
		var h [8][256]int
		for _, k := range keys[lo:hi] {
			for b := range h {
				h[b][byte(k>>(8*b))]++
			}
		}
		return &h
	})
	var total [8][256]int // over all ranges: the same in any order of the keys
	for _, h := range hists {
		for b := range total {
			for v, c := range h[b] {
				total[b][v] += c
			}
		}
	}
	counts := make([][256]int, len(hists)) // per range, of the byte being sorted on
	src, dst := keys, make([]core.Key, n)
	moved := false
	for b := range 8 {
		shift := 8 * b
		switch {
		case total[b][byte(src[0]>>shift)] == n:
			continue // constant byte
		case !moved:
			for k, h := range hists {
				counts[k] = h[b]
			}
		case len(counts) == 1:
			counts[0] = total[b]
		default:
			copy(counts, core.Parallel(n, func(_, lo, hi int) (c [256]int) {
				for _, k := range src[lo:hi] {
					c[byte(k>>shift)]++
				}
				return c
			}))
		}
		// Counts become the first output slot of each range and value.
		at := 0
		for v := range 256 {
			for k := range counts {
				counts[k][v], at = at, at+counts[k][v]
			}
		}
		core.Parallel(n, func(k, lo, hi int) struct{} {
			next := counts[k]
			for _, key := range src[lo:hi] {
				v := byte(key >> shift)
				dst[next[v]] = key
				next[v]++
			}
			return struct{}{}
		})
		src, dst = dst, src
		moved = true
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}
