package load

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// opsChecksum fingerprints a whole stream — Kind, Key and Payload of
// every op, FNV-1a a word at a time — where dataset's
// TestGoldenStreamsMixedOps covers the keys only.
func opsChecksum(ops []Op) uint64 {
	h := uint64(14695981039346656037)
	for _, op := range ops {
		for _, w := range [3]uint64{uint64(op.Kind), uint64(op.Key), op.payload} {
			h = (h ^ w) * 1099511628211
		}
	}
	return h
}

// TestGoldenMixedOps pins MixedOps to the streams recorded at commit
// 04cc7b8, where one goroutine appended the ops one by one: at 20k ops
// over 50k amzn keys and, when not -short, at the benchmark's scale.
func TestGoldenMixedOps(t *testing.T) {
	// Write-only, YCSB A and B, read-only; uniform and YCSB's skew.
	mixes := []struct{ readFrac, theta float64 }{
		{0, 0}, {0, 0.99}, {0.5, 0}, {0.5, 0.99}, {0.95, 0}, {0.95, 0.99}, {1, 0}, {1, 0.99},
	}
	small := []uint64{0x89f10021f2bcff18, 0x048f3b8f555a8e71, 0x8d7106cdcb72d62e, 0x2ca0b02afb374b08, 0x1071682827272561, 0xb19dc4950b9ab383, 0x1b7c2b31de8a0895, 0x93241e202b86e7af}
	full := []uint64{0x40e75764195a3356, 0xb061ec1d4b529efd, 0x8904e1656942f187, 0x33594d9f19f403ca, 0x21b437a8c69cdbda, 0xc361f1f2d1bc4528, 0x4e6e7b3be987ec51, 0xb4e56b1eacb658ae}
	check := func(name string, keys []core.Key, n int, golden []uint64) {
		var got []uint64
		for _, mix := range mixes {
			got = append(got, opsChecksum(MixedOps(keys, n, mix.readFrac, mix.theta, 7)))
		}
		if !slices.Equal(got, golden) {
			t.Errorf("%s: checksums of mixes %v\n%#016x, want\n%#016x", name, mixes, got, golden)
		}
	}
	check("20k ops", dataset.MustGenerate(dataset.Amzn, 50_000, 1), 20_000, small)
	if !testing.Short() {
		check("5M ops", dataset.MustGenerate(dataset.Amzn, 2_000_000, 1), 5_000_000, full)
	}
}

// refMixedOps is the loop MixedOps was before it filled the stream by
// index from several goroutines: one pass that appends op after op,
// carrying the schedule's state along.
func refMixedOps(keys []core.Key, n int, readFrac, theta float64, seed uint64) []Op {
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

	ops := make([]Op, 0, n)
	ri, wi, ii := 0, 0, 0
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += readFrac
		if acc >= 1 {
			acc--
			ops = append(ops, Op{Kind: get, Key: readKeys[ri]})
			ri++
			continue
		}
		var key core.Key
		if wi%2 == 0 {
			key = inserts[ii]
			ii++
		} else {
			key = readKeys[(ri+wi)%len(readKeys)]
		}
		ops = append(ops, Op{Kind: Put, Key: key, payload: uint64(i) | 1})
		wi++
	}
	return ops
}

// TestMixedOpsSameUnderGOMAXPROCS compares MixedOps with the one-pass
// loop under every CPU count, at the sizes where the stream is empty, a
// single op, one chunk that does not end on a block, or several chunks
// and a short last one, and at read fractions whose float accumulator
// never returns to a value it had (0.95, 1/3): a chunk must start from
// the accumulator the one-pass loop reaches there, not from one
// computed in closed form.
func TestMixedOpsSameUnderGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	keys := dataset.MustGenerate(dataset.Amzn, 50_000, 1)
	fracs := []float64{-1, 0, 1.0 / 3, 0.5, 0.95, 1, 2}
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 255, 256, 257, 20_011, 150_001} {
			for _, readFrac := range fracs {
				for _, theta := range []float64{0, 0.99} {
					want := refMixedOps(keys, n, readFrac, theta, 7)
					if got := MixedOps(keys, n, readFrac, theta, 7); !slices.Equal(got, want) {
						t.Errorf("GOMAXPROCS=%d n=%d readFrac=%g theta=%g: differs from the one-pass loop", procs, n, readFrac, theta)
					}
				}
			}
		}
	}
}

// BenchmarkMixedOps prices the stream generator of the store
// workloads at the benchmark's scale: YCSB A, 5M ops over 2M keys. ζ is
// paid once per process and key-set size (dataset's BenchmarkStreams
// prices it), so it is paid here before the clock starts.
func BenchmarkMixedOps(b *testing.B) {
	keys := dataset.MustGenerate(dataset.Amzn, 2_000_000, 1)
	dataset.ZipfLookups(keys, 1, 0.99, 7)
	for b.Loop() {
		MixedOps(keys, 5_000_000, 0.5, 0.99, 7)
	}
}
