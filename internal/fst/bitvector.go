package fst

import (
	"math/bits"
	"slices"
)

// bitvector is an append-only bit sequence with O(1) rank and sampled
// select support, the building block of LOUDS-encoded tries.
type bitvector struct {
	words []uint64
	n     int // bits appended
	// ranks[i] = number of ones in words[:i]; built by finish().
	ranks []int32
	// selects[k] = bit position of the (k*selectSample+1)-th one.
	selects []int32
	ones    int
}

const selectSample = 64

// append adds one bit.
func (b *bitvector) append(bit bool) {
	w := b.n >> 6
	if w == len(b.words) {
		b.words = append(b.words, 0)
	}
	if bit {
		b.words[w] |= 1 << (uint(b.n) & 63)
	}
	b.n++
}

// finish builds the rank/select directories; must be called before
// rank1/select1 and after the last append. The appended arrays are
// cloned to their length, so the vector holds no spare capacity.
func (b *bitvector) finish() {
	b.words = slices.Clone(b.words)
	b.ranks = make([]int32, len(b.words)+1)
	total := int32(0)
	for i, w := range b.words {
		b.ranks[i] = total
		total += int32(bits.OnesCount64(w))
	}
	b.ranks[len(b.words)] = total
	b.ones = int(total)
	b.selects = b.selects[:0]
	seen := 0
	for i, w := range b.words {
		c := bits.OnesCount64(w)
		for seen+c >= len(b.selects)*selectSample+1 && len(b.selects)*selectSample+1 <= b.ones {
			// The (len(selects)*selectSample+1)-th one is inside word i.
			target := len(b.selects)*selectSample + 1 - seen
			pos := i*64 + selectOneInWord(w, target)
			b.selects = append(b.selects, int32(pos))
		}
		seen += c
	}
	b.selects = slices.Clone(b.selects)
}

// selectOneInWord returns the bit offset of the k-th (1-based) one in w.
func selectOneInWord(w uint64, k int) int {
	for i := 0; i < 64; i++ {
		if w&(1<<uint(i)) != 0 {
			k--
			if k == 0 {
				return i
			}
		}
	}
	return -1
}

// get returns bit i.
func (b *bitvector) get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// rank1 returns the number of ones in positions [0, i] (inclusive).
func (b *bitvector) rank1(i int) int {
	w := i >> 6
	mask := ^uint64(0) >> (63 - (uint(i) & 63))
	return int(b.ranks[w]) + bits.OnesCount64(b.words[w]&mask)
}

// select1 returns the position of the k-th one (1-based); k must be in
// [1, ones].
func (b *bitvector) select1(k int) int {
	// Jump to the sampled position, then scan forward by word.
	s := (k - 1) / selectSample
	pos := int(b.selects[s])
	seen := s*selectSample + 1
	if seen == k {
		return pos
	}
	// Continue scanning after pos: clear bits <= pos in its word.
	w := pos >> 6
	word := b.words[w] &^ (^uint64(0) >> (63 - (uint(pos) & 63)))
	for {
		c := bits.OnesCount64(word)
		if seen+c >= k {
			return w*64 + selectOneInWord(word, k-seen)
		}
		seen += c
		w++
		word = b.words[w]
	}
}

// size returns the footprint in bytes including directories.
func (b *bitvector) size() int {
	return len(b.words)*8 + len(b.ranks)*4 + len(b.selects)*4
}
