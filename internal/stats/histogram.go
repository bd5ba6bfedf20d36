package stats

// Latency histogram for the tail-latency experiments: a fixed-size
// log-linear (HDR-style) histogram over non-negative int64 values
// (nanoseconds in practice) with bounded relative error, lock-free
// concurrent recording, and cheap merging — the per-worker recording
// structure of the load generators in internal/load. See DESIGN.md
// "Measurement".

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

const (
	// histSubBits sets the histogram resolution: each power-of-two
	// major bucket is split into 2^histSubBits linear sub-buckets.
	histSubBits  = 5
	histSubCount = 1 << histSubBits // sub-buckets per major bucket

	// histBuckets covers every non-negative int64 exactly: values
	// below 2*histSubCount map one-to-one, and each further power of
	// two up to bit 62 adds histSubCount sub-buckets (the largest
	// shift bucketIdx can produce is 62-histSubBits).
	histBuckets = (62-histSubBits)*histSubCount + 2*histSubCount
)

// HistMaxRelError is the worst-case relative error of any value
// reported by Histogram.Quantile: a recorded value v is returned as
// the midpoint of a bucket no wider than v/2^histSubBits, so the
// midpoint is within v/2^(histSubBits+1) = v/64 ≈ 1.6% of v. Values
// below 2*histSubCount (64 ns at nanosecond resolution) are exact.
const HistMaxRelError = 1.0 / (2 * histSubCount)

// Histogram is a fixed-bucket log-linear histogram of non-negative
// int64 samples. All methods are safe for concurrent use: Record is a
// single atomic add per sample (plus a CAS loop when the running max
// advances), so any number of goroutines may record into one Histogram
// — or, cheaper, record into per-worker Histograms merged at the end —
// while readers take snapshots and quantiles mid-run.
//
// Concurrent reads are per-counter consistent, not point-in-time
// consistent: a snapshot taken while writers are active may split a
// logically simultaneous pair of samples. Quantiles over such a
// snapshot are still valid for the samples it did capture.
//
// The zero value is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucketIdx maps a sample to its bucket. Values in [0, 2*histSubCount)
// map one-to-one; a larger value with highest set bit h keeps
// histSubBits bits of precision below that bit.
func bucketIdx(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 2*histSubCount {
		return int(u)
	}
	shift := uint(bits.Len64(u) - histSubBits - 1)
	return int(shift)*histSubCount + int(u>>shift)
}

// bucketMid returns the midpoint of bucket idx — the value Quantile
// reports for samples that landed there.
func bucketMid(idx int) int64 {
	if idx < 2*histSubCount {
		return int64(idx)
	}
	shift := uint(idx/histSubCount - 1)
	low := int64(uint64(idx%histSubCount+histSubCount) << shift)
	width := int64(1) << shift
	return low + (width-1)/2
}

// Record adds one sample. Negative samples (possible from clock
// adjustments mid-measurement) are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIdx(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Max reports the largest recorded sample, exactly (0 when empty).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Sum reports the exact sum of recorded samples — with Count, the
// _sum/_count pair of a Prometheus summary exposition.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// mean reports the exact mean of recorded samples (0 when empty).
func (h *Histogram) mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Merge adds o's samples into h. It is safe while writers are still
// recording into either histogram (each counter transfers atomically);
// merging a histogram into itself is not supported.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	om := o.max.Load()
	for {
		cur := h.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			return
		}
	}
}

// Snapshot returns an independent copy of the histogram's current
// contents, usable while writers continue to record into h.
func (h *Histogram) Snapshot() *Histogram {
	s := &Histogram{}
	s.Merge(h)
	return s
}

// Quantile returns the q-quantile (0 < q <= 1) of the recorded
// samples by exact counting: the value reported for the ceil(q*n)-th
// smallest sample. The result is the sample's bucket midpoint (clamped
// to the exact maximum, which a top bucket's midpoint could otherwise
// exceed) and so is within HistMaxRelError of the sample itself;
// q == 1 returns the exact maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max()
	}
	rank := uint64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			v := bucketMid(i)
			// The midpoint of the top occupied bucket can sit above the
			// exact max (a sample in the bucket's lower half); a quantile
			// must never exceed the recorded maximum.
			if m := h.Max(); v > m {
				v = m
			}
			return v
		}
	}
	// Writers racing between count and bucket loads can leave the sum
	// short of n; the max is the safe answer for the top rank.
	return h.Max()
}

// Quantiles is the tail-latency summary reported by every serving
// experiment.
type Quantiles struct {
	P50, P99, P999, Max int64
}

// Summary extracts the standard quantile set in one pass-per-quantile.
func (h *Histogram) Summary() Quantiles {
	return Quantiles{
		P50:  h.Quantile(0.50),
		P99:  h.Quantile(0.99),
		P999: h.Quantile(0.999),
		Max:  h.Max(),
	}
}

// String renders the summary compactly (values read as nanoseconds).
func (h *Histogram) String() string {
	s := h.Summary()
	return fmt.Sprintf("n=%d mean=%.0f p50=%d p90=%d p99=%d p99.9=%d max=%d",
		h.Count(), h.mean(), s.P50, h.Quantile(0.90), s.P99, s.P999, s.Max)
}
