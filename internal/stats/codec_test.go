package stats

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/binio"
)

func encodeHist(t *testing.T, h *Histogram) []byte {
	t.Helper()
	w := binio.NewWriter(nil)
	h.EncodeTo(w)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	return w.Buffered()
}

// TestHistogramCodecRoundTrip checks that a decoded histogram reports
// identical counts, quantiles, mean, and max — and that it keeps
// working as a histogram (recording, merging) afterwards.
func TestHistogramCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &Histogram{}
	for i := 0; i < 10_000; i++ {
		h.Record(rng.Int63n(1 << uint(10+rng.Intn(30))))
	}
	got, err := DecodeHistogram(binio.NewReader(encodeHist(t, h)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != h.Count() || got.Max() != h.Max() || got.mean() != h.mean() {
		t.Fatalf("summary drift: got n=%d max=%d mean=%f, want n=%d max=%d mean=%f",
			got.Count(), got.Max(), got.mean(), h.Count(), h.Max(), h.mean())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if got.Quantile(q) != h.Quantile(q) {
			t.Fatalf("q%g: got %d, want %d", q, got.Quantile(q), h.Quantile(q))
		}
	}
	// The decoded histogram is live: merging it back doubles the count.
	got.Merge(h)
	if got.Count() != 2*h.Count() {
		t.Fatalf("decoded histogram not mergeable: %d", got.Count())
	}
}

func TestHistogramCodecEmpty(t *testing.T) {
	got, err := DecodeHistogram(binio.NewReader(encodeHist(t, &Histogram{})))
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 0 || got.Max() != 0 {
		t.Fatalf("empty round-trip: n=%d max=%d", got.Count(), got.Max())
	}
}

// TestHistogramCodecCorrupt byte-flips and truncates an encoded
// histogram: every mutation must error or decode (CRC protection lives
// a layer up, in the frame), never panic.
func TestHistogramCodecCorrupt(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i < 2000; i += 7 {
		h.Record(i * i)
	}
	enc := encodeHist(t, h)
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeHistogram(binio.NewReader(enc[:i])); !errors.Is(err, binio.ErrCorrupt) {
			t.Fatalf("truncation at %d: got %v, want ErrCorrupt", i, err)
		}
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		_, _ = DecodeHistogram(binio.NewReader(mut)) // must not panic
	}
	// Targeted structural corruption: out-of-range bucket index.
	mut := append([]byte(nil), enc...)
	mut[5], mut[6], mut[7], mut[8] = 0xff, 0xff, 0xff, 0x7f
	if _, err := DecodeHistogram(binio.NewReader(mut)); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("wild bucket index: got %v, want ErrCorrupt", err)
	}
	// A pair the encoder never writes: an empty bucket spelled out.
	mut = append([]byte(nil), enc...)
	copy(mut[9:17], make([]byte, 8))
	if _, err := DecodeHistogram(binio.NewReader(mut)); !errors.Is(err, binio.ErrCorrupt) {
		t.Fatalf("zero-count bucket: got %v, want ErrCorrupt", err)
	}
}

// TestHistogramCodecConcurrent encodes while writers are recording:
// the snapshot-based encode must produce a decodable histogram whose
// count matches what its buckets captured within documented slack.
func TestHistogramCodecConcurrent(t *testing.T) {
	h := &Histogram{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					h.Record(rng.Int63n(1 << 20))
				}
			}
		}(int64(w))
	}
	for i := 0; i < 50; i++ {
		if _, err := DecodeHistogram(binio.NewReader(encodeHist(t, h))); err != nil {
			t.Fatalf("mid-run encode %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
