package stats

import (
	"sync"
	"testing"

	"repro/internal/binio"
)

// TestHistogramScrapeInvariants extends the concurrent property suite
// with the scraper's contract: while recorders run, every snapshot must
// (1) never lose counts relative to an earlier snapshot, (2) keep
// quantiles ordered and bounded by [0, Max], and (3) round-trip through
// the codec exactly — a snapshot is immutable, so unlike the live
// histogram its encode/decode must be byte-for-byte equivalent in every
// summary it reports. Run under -race in CI.
func TestHistogramScrapeInvariants(t *testing.T) {
	const (
		workers   = 4
		perWorker = 25_000
	)
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := uint64(w)*0x9E3779B97F4A7C15 + 1
			for i := 0; i < perWorker; i++ {
				state ^= state << 13
				state ^= state >> 7
				state ^= state << 17
				h.Record(int64(state % (1 << 22)))
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	var lastCount uint64
	scrape := func() {
		snap := h.Snapshot()
		// (1) counts are monotone across scrapes.
		if snap.Count() < lastCount {
			t.Fatalf("scrape lost counts: %d after %d", snap.Count(), lastCount)
		}
		lastCount = snap.Count()
		// (2) quantiles ordered and inside [0, Max].
		prev := int64(0)
		for _, q := range quantiles {
			v := snap.Quantile(q)
			if v < 0 || v > snap.Max() {
				t.Fatalf("q%g = %d outside [0, %d]", q, v, snap.Max())
			}
			if v < prev {
				t.Fatalf("quantiles regressed: q%g = %d below %d", q, v, prev)
			}
			prev = v
		}
		// (3) an immutable snapshot round-trips exactly.
		w := binio.NewWriter(nil)
		snap.EncodeTo(w)
		if w.Err() != nil {
			t.Fatal(w.Err())
		}
		dec, err := DecodeHistogram(binio.NewReader(w.Buffered()))
		if err != nil {
			t.Fatal(err)
		}
		if dec.Count() != snap.Count() || dec.Max() != snap.Max() || dec.mean() != snap.mean() {
			t.Fatalf("round-trip drift: n=%d/%d max=%d/%d",
				dec.Count(), snap.Count(), dec.Max(), snap.Max())
		}
		for _, q := range quantiles {
			if dec.Quantile(q) != snap.Quantile(q) {
				t.Fatalf("round-trip q%g: %d != %d", q, dec.Quantile(q), snap.Quantile(q))
			}
		}
	}

	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		scrape()
	}
	// Final scrape sees the exact total.
	if got := h.Snapshot().Count(); got != workers*perWorker {
		t.Fatalf("final count %d, want %d", got, workers*perWorker)
	}
}
