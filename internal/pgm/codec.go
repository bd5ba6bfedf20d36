package pgm

// Binary codec for built PGM indexes: the full level hierarchy plus the
// verified data-level margins are serialized, so Decode reconstructs a
// ready index without re-running the segment corridor. Little-endian
// via binio; framing and checksums live in package persist.

import (
	"repro/internal/binio"
	"repro/internal/core"
)

// Encode writes the built index to w: per level its segment count and
// each segment's key, slope and pos, then every data segment's lower
// margin, then every upper one.
func (idx *Index) Encode(w *binio.Writer) error {
	w.U32(uint32(idx.eps))
	w.U64(uint64(idx.n))
	w.U32(uint32(len(idx.levels)))
	for _, l := range idx.levels {
		w.U32(uint32(len(l.keys)))
		for i, k := range l.keys {
			w.U64(k)
			w.F64(l.slopes[i])
			w.U32(uint32(l.pos[i]))
		}
	}
	for side := range 2 {
		for j := side; j < len(idx.margins); j += 2 {
			w.U32(uint32(idx.margins[j]))
		}
	}
	return w.Err()
}

// Decode reconstructs a built index from r without refitting. All
// invariants the descent relies on are re-validated: every level is
// non-empty with non-decreasing keys, its positions run non-decreasing
// from 0 and stay below the size of the level beneath (n for the data
// level), and the margin array is sized to the data level.
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
		l := level{keys: make([]core.Key, m), slopes: make([]float64, m), pos: make([]int32, m)}
		for i := range l.keys {
			l.keys[i] = r.U64()
			l.slopes[i] = r.FiniteF64()
			l.pos[i] = int32(r.U32())
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if l.pos[0] != 0 || int(l.pos[m-1]) >= below {
			return nil, binio.Corruptf("pgm: level %d positions run %d..%d over a level of %d", li, l.pos[0], l.pos[m-1], below)
		}
		for i := 1; i < m; i++ {
			if l.keys[i] < l.keys[i-1] || l.pos[i] < l.pos[i-1] {
				return nil, binio.Corruptf("pgm: level %d segment %d out of order", li, i)
			}
		}
		idx.levels = append(idx.levels, l)
		below = m
	}
	m0 := len(idx.levels[0].keys)
	if r.Remaining() < 8*m0 {
		return nil, binio.Corruptf("pgm: truncated margin arrays")
	}
	idx.margins = make([]int32, 2*m0)
	for side := range 2 {
		for j := side; j < len(idx.margins); j += 2 {
			idx.margins[j] = int32(r.U32())
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	for j, v := range idx.margins {
		if v < 0 {
			return nil, binio.Corruptf("pgm: negative data margin at segment %d", j/2)
		}
	}
	return idx, nil
}
