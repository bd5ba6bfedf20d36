package registry

// The built-in catalog: every index family of the benchmark registers
// its sweep here. The sweeps were extracted verbatim from the old
// internal/bench registry so the configuration ladders (and therefore
// every figure) are unchanged.

import (
	"fmt"

	"repro/internal/art"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/fast"
	"repro/internal/fst"
	"repro/internal/hashidx"
	"repro/internal/ibtree"
	"repro/internal/pgm"
	"repro/internal/rbs"
	"repro/internal/rmi"
	"repro/internal/rs"
	"repro/internal/wormhole"
)

// treeStrides is the subset-stride sweep used for every tree structure
// ("ten configurations ranging from minimum to maximum size"): large
// stride = small index first, matching the ladder order of the learned
// structures. stringStrides is the sweep of the two string structures.
var treeStrides = []int{512, 256, 128, 64, 32, 16, 8, 4, 2, 1}
var stringStrides = []int{1, 4, 16, 64}

func init() {
	register("RMI", func(keys []core.Key) []rung {
		var out []rung
		for _, b := range rmi.ParetoBranches(len(keys), 10) {
			// The knob is the tail of rmi.Config.String(), the one part
			// of the label that does not wait for the tuner.
			out = append(out, rung{knob: fmt.Sprintf("B=%d]", b), resolve: func() NamedBuilder {
				c := rmi.TuneBranch(keys, b)
				return NamedBuilder{c.String(), rmi.Builder{Config: c}}
			}})
		}
		return out
	})
	register("PGM", func([]core.Key) []rung {
		var out []rung
		for _, eps := range []int{4096, 1024, 512, 256, 128, 64, 32, 16, 8, 4} {
			out = append(out, fixed(fmt.Sprintf("eps=%d", eps), pgm.Builder{Eps: eps}))
		}
		return out
	})
	register("RS", func([]core.Key) []rung {
		var out []rung
		type rc struct{ err, bits int }
		for _, c := range []rc{{4096, 4}, {1024, 6}, {512, 8}, {256, 10}, {128, 12},
			{64, 14}, {32, 16}, {16, 18}, {8, 20}, {4, 22}} {
			out = append(out, fixed(fmt.Sprintf("eps=%d,r=%d", c.err, c.bits),
				rs.Builder{Config: rs.Config{SplineErr: c.err, RadixBits: c.bits}}))
		}
		return out
	})
	register("RBS", func([]core.Key) []rung {
		var out []rung
		for _, bits := range []int{4, 6, 8, 10, 12, 14, 16, 18, 20, 22} {
			out = append(out, fixed(fmt.Sprintf("r=%d", bits), rbs.Builder{RadixBits: bits}))
		}
		return out
	})
	register("BTree", strideLadder(treeStrides, func(s int) core.Builder { return btree.Builder{Stride: s} }))
	register("IBTree", strideLadder(treeStrides, func(s int) core.Builder { return ibtree.Builder{Stride: s} }))
	register("ART", strideLadder(treeStrides, func(s int) core.Builder { return art.Builder{Stride: s} }))
	register("FAST", strideLadder(treeStrides, func(s int) core.Builder { return fast.Builder{Stride: s} }))
	register("FST", strideLadder(stringStrides, func(s int) core.Builder { return fst.Builder{Stride: s} }))
	register("Wormhole", strideLadder(stringStrides, func(s int) core.Builder { return wormhole.Builder{Stride: s} }))
	register("BS", single("", rbs.BinarySearchBuilder{}))
	register("RobinHash", single(fmt.Sprintf("lf=%g", hashidx.RobinHoodLoadFactor), hashidx.RobinHoodBuilder{}))
	register("CuckooMap", single(fmt.Sprintf("lf=%g", hashidx.CuckooLoadFactor), hashidx.CuckooBuilder{}))
}

// Tier returns the builder for indexing a small LSM tier run of a shard
// of family — keys is typically one flushed delta or a minor merge of a
// few, orders of magnitude smaller than the shard base — plus the
// catalog ID of the entry that builds it: the builder's own family, not
// the shard's, so a persisted run names the exact entry that rebuilds
// it. A run is served by plain binary search (no build at all: every
// bound is the full array) until it is a run of a learned family big
// enough (≥ tierLearnedMin keys) that a coarse learned bound — one cheap
// linear fit per ~epsilon keys — beats the log2(n) last-mile probes.
// Coarse PGM stands in for all three learned families: its O(n) greedy
// build is the cheapest learned construction and the run is replaced
// wholesale at the next merge, so per-family tuning would buy nothing.
// Tree, hash and custom families never pay index construction on a flush.
func Tier(family string, keys []core.Key) (nb NamedBuilder, id string) {
	if learned[family] && len(keys) >= tierLearnedMin {
		lab := fmt.Sprintf("eps=%d", tierEps)
		return NamedBuilder{lab, pgm.Builder{Eps: tierEps}}, ID("PGM", lab)
	}
	return NamedBuilder{"", rbs.BinarySearchBuilder{}}, "BS"
}

// BuildWork prices building a serving run of n keys in key visits: one
// merge pass to write them, plus the passes that fit the index base
// picks — Rebuild's rule for a base run, Tier's for a tier run. Binary
// search, trees, hashes and unknown families fit nothing (a bulk load
// is the write pass), PGM, RS and the coarse tier PGM one streaming
// pass, and an RMI base its tuner, rmi.TuneWork.
func BuildWork(family string, n int, base bool) int64 {
	w := int64(n)
	switch {
	case base && family == "RMI":
		w += rmi.TuneWork(n)
	case base && learned[family], !base && learned[family] && n >= tierLearnedMin:
		w += int64(n)
	}
	return w
}

// tierLearnedMin is the run size above which a tier run gets a coarse
// learned index instead of binary search; below it the run fits in a
// few cache lines' worth of probe path and construction can't pay off.
const tierLearnedMin = 1 << 14

// tierEps is the error bound of the coarse tier-run PGM: wide enough
// that the build is a single cheap pass with few segments, tight enough
// to cut the last mile to a handful of probes.
const tierEps = 256

// strideLadder is the ladder of a subset-stride structure: one rung per
// stride, in the order given.
func strideLadder(strides []int, mk func(int) core.Builder) ladderFunc {
	return func([]core.Key) []rung {
		out := make([]rung, 0, len(strides))
		for _, s := range strides {
			out = append(out, fixed(fmt.Sprintf("stride=%d", s), mk(s)))
		}
		return out
	}
}

// single is the ladder of a structure with one configuration.
func single(label string, b core.Builder) ladderFunc {
	return func([]core.Key) []rung { return []rung{fixed(label, b)} }
}
