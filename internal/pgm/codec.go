package pgm

// Binary codec for built PGM indexes: the full level hierarchy plus the
// verified data-level margins are serialized, so Decode reconstructs a
// ready index without re-running the segment corridor. Little-endian
// via binio; framing and checksums live in package persist.

import (
	"math"

	"repro/internal/binio"
	"repro/internal/core"
)

// Encode writes the built index to w as memory holds it: per level its
// segment count and each segment's key, float32 slope and pos, then
// each data segment's two margin codes, lower in the low half.
func (idx *Index) Encode(w *binio.Writer) error {
	w.U32(uint32(idx.eps))
	w.U64(uint64(idx.n))
	w.U32(uint32(len(idx.levels)))
	for _, l := range idx.levels {
		w.U32(uint32(len(l.keys)))
		for i, k := range l.keys {
			w.U64(k)
			w.U32(math.Float32bits(l.slopes[i]))
			w.U32(uint32(l.pos[i]))
		}
	}
	for j := 0; j < len(idx.margins); j += 2 {
		w.U32(uint32(idx.margins[j]) | uint32(idx.margins[j+1])<<16)
	}
	return w.Err()
}

// Decode reconstructs a built index from r without refitting. All
// invariants the descent relies on are re-validated: every level is
// non-empty with non-decreasing keys and finite, non-negative slopes,
// its positions run non-decreasing from 0 and stay below the size of
// the level beneath (n for the data level), and no margin's excess
// over eps+1 exceeds n + n>>10, which no true margin rounds above.
func Decode(r *binio.Reader) (*Index, error) {
	eps := int(r.U32())
	n := r.U64()
	nLevels := r.Count(4 + segmentBytes) // every level carries >=1 segment
	if err := r.Err(); err != nil {
		return nil, err
	}
	const maxN = 1 << 48
	if n == 0 || n > maxN {
		return nil, binio.Corruptf("pgm: implausible key count %d", n)
	}
	if eps < 1 || nLevels < 1 {
		return nil, binio.Corruptf("pgm: eps %d, levels %d", eps, nLevels)
	}
	idx := &Index{eps: eps, n: int(n)}
	idx.levels = make([]level, 0, nLevels)
	below := idx.n
	for li := 0; li < nLevels; li++ {
		m := r.Count(segmentBytes)
		if err := r.Err(); err != nil {
			return nil, err
		}
		if m < 1 {
			return nil, binio.Corruptf("pgm: empty level %d", li)
		}
		l := level{keys: make([]core.Key, m), slopes: make([]float32, m), pos: make([]int32, m)}
		for i := range l.keys {
			l.keys[i] = r.U64()
			l.slopes[i] = math.Float32frombits(r.U32())
			l.pos[i] = int32(r.U32())
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if l.pos[0] != 0 || int(l.pos[m-1]) >= below {
			return nil, binio.Corruptf("pgm: level %d positions run %d..%d over a level of %d", li, l.pos[0], l.pos[m-1], below)
		}
		for i, s := range l.slopes {
			if !(s >= 0 && s <= math.MaxFloat32) || i > 0 && (l.keys[i] < l.keys[i-1] || l.pos[i] < l.pos[i-1]) {
				return nil, binio.Corruptf("pgm: level %d segment %d out of order or slope %v", li, i, s)
			}
		}
		idx.levels = append(idx.levels, l)
		below = m
	}
	m0 := len(idx.levels[0].keys)
	if r.Remaining() < m0*marginBytes {
		return nil, binio.Corruptf("pgm: truncated margin arrays")
	}
	idx.margins = make([]core.Margin, 2*m0)
	for j := 0; j < len(idx.margins); j += 2 {
		v := r.U32()
		idx.margins[j], idx.margins[j+1] = core.Margin(v), core.Margin(v>>16)
		if excess := max(idx.margins[j].Value(), idx.margins[j+1].Value()); uint64(excess) > n+n>>10 {
			return nil, binio.Corruptf("pgm: data segment %d margin excess %d over %d keys", j/2, excess, n)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return idx, nil
}
