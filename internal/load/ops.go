package load

import (
	"repro/internal/core"
	"repro/internal/dataset"
)

// MixedOps builds a YCSB-style operation stream over a sorted key set:
// n operations of which a readFrac fraction are point reads of present
// keys drawn under a scrambled-zipfian distribution with parameter
// theta (theta <= 0 degrades to uniform), and the rest are writes
// alternating between inserting a fresh absent key and updating a
// distribution-drawn present one. Reads and writes interleave at the
// exact ratio (Bresenham scheduling), so write-triggered compactions
// land mid-read-stream as in a live system. The write at stream
// position i carries payload i|1. Deterministic in seed.
func MixedOps(keys []core.Key, n int, readFrac, theta float64, seed uint64) []Op {
	if readFrac < 0 {
		readFrac = 0
	}
	if readFrac > 1 {
		readFrac = 1
	}
	readKeys := dataset.ZipfLookups(keys, n, theta, seed)
	nWrites := n - int(float64(n)*readFrac)
	var inserts []core.Key
	if nWrites > 0 {
		inserts = dataset.InsertKeys(keys, nWrites/2+1, seed+1)
	}

	// The schedule is walked twice. The first walk touches no memory and
	// only notes the state every noteEvery ops; the second fills the ops
	// chunk-wise, each range from the last note at or before its first
	// op. The accumulator is a float and is carried, never recomputed: a
	// range starts from the very bits a single pass would hold there.
	const noteEvery = 1024
	notes := make([]schedule, 0, n/noteEvery+1)
	var s schedule
	for i := range n {
		if i%noteEvery == 0 {
			notes = append(notes, s)
		}
		s.next(readFrac)
	}
	ops := make([]Op, n)
	core.Parallel(n, func(_, lo, hi int) struct{} {
		s := notes[lo/noteEvery]
		for i := lo / noteEvery * noteEvery; i < lo; i++ {
			s.next(readFrac)
		}
		for i := lo; i < hi; i++ {
			ri, wi := s.reads, s.writes
			switch read := s.next(readFrac); {
			case read:
				ops[i] = Op{Kind: get, Key: readKeys[ri]}
			case wi%2 == 0:
				ops[i] = Op{Kind: Put, Key: inserts[wi/2], payload: uint64(i) | 1}
			default:
				ops[i] = Op{Kind: Put, Key: readKeys[(ri+wi)%len(readKeys)], payload: uint64(i) | 1}
			}
		}
		return struct{}{}
	})
	return ops
}

// schedule is the state of the Bresenham interleaving before an op.
type schedule struct {
	reads, writes int
	acc           float64
}

// next moves past one op and reports whether it is a read.
func (s *schedule) next(readFrac float64) bool {
	s.acc += readFrac
	if s.acc >= 1 {
		s.acc--
		s.reads++
		return true
	}
	s.writes++
	return false
}
