package stats

// Wire codec for Histogram: the sparse encoding the network serving
// front end uses to ship a server's live latency histogram to a
// monitoring client in one stats frame. Latency histograms are
// overwhelmingly sparse — a serving run touches a few dozen of the
// 1888 buckets — so the encoding is (bucket index, count) pairs for
// the non-zero buckets, plus the sample count, sum, and running max.
//
// Encoding happens from a Snapshot, so a histogram under concurrent
// recording ships a per-counter-consistent copy; Decode reconstructs a
// Histogram that merges and quantiles exactly like the original.

import (
	"repro/internal/binio"
)

// histCodecVersion guards the wire layout; bump on any change.
const histCodecVersion = 1

// EncodeTo writes a snapshot of h through w: version, non-zero
// (index, count) pairs in ascending index order, then count, sum, max.
func (h *Histogram) EncodeTo(w *binio.Writer) {
	s := h.Snapshot()
	w.U8(histCodecVersion)
	nz := uint32(0)
	for i := range s.counts {
		if s.counts[i].Load() != 0 {
			nz++
		}
	}
	w.U32(nz)
	for i := range s.counts {
		if c := s.counts[i].Load(); c != 0 {
			w.U32(uint32(i))
			w.U64(c)
		}
	}
	w.U64(s.count.Load())
	w.U64(uint64(s.sum.Load()))
	w.U64(uint64(s.max.Load()))
}

// DecodeHistogram reads a histogram encoded by EncodeTo. Structural
// invariants are enforced — version, bucket indexes in range and
// strictly ascending, no pair with a zero count (EncodeTo skips empty
// buckets, so only one byte string decodes to any histogram) — so
// corrupt input errors instead of producing a histogram that panics
// later; the sample count and sum are taken as
// recorded (a snapshot under concurrent writers is per-counter
// consistent, not cross-counter consistent, by documented contract).
func DecodeHistogram(r *binio.Reader) (*Histogram, error) {
	if v := r.U8(); r.Err() == nil && v != histCodecVersion {
		return nil, binio.Corruptf("histogram codec version %d, want %d", v, histCodecVersion)
	}
	n := r.Count(12) // each pair is at least u32 idx + u64 count
	h := &Histogram{}
	prev := -1
	for i := 0; i < n; i++ {
		idx := int(r.U32())
		c := r.U64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if idx >= histBuckets {
			return nil, binio.Corruptf("histogram bucket index %d out of range", idx)
		}
		if idx <= prev {
			return nil, binio.Corruptf("histogram bucket indexes not ascending at %d", idx)
		}
		if c == 0 {
			return nil, binio.Corruptf("histogram bucket %d encoded with a zero count", idx)
		}
		prev = idx
		h.counts[idx].Store(c)
	}
	h.count.Store(r.U64())
	h.sum.Store(int64(r.U64()))
	max := int64(r.U64())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if max < 0 {
		return nil, binio.Corruptf("histogram max %d negative", max)
	}
	h.max.Store(max)
	return h, nil
}
