package table

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/registry"
)

// buildRun indexes one run with a family's mid-sweep builder.
func buildRun(t *testing.T, family string, keys []core.Key, vals []uint64, tombs []bool) *Table {
	t.Helper()
	if len(keys) == 0 {
		return Empty(nil)
	}
	nb, ok := registry.Builder(family, keys)
	if !ok {
		t.Fatalf("no builder for family %s", family)
	}
	run, err := BuildTombed(nb.Builder, keys, vals, tombs, nil)
	if err != nil {
		t.Fatalf("%s: %v", family, err)
	}
	return run
}

// runSet is a hand-shaped ordered run set with its map oracle.
type runSet struct {
	runs     []*Table
	oracle   map[core.Key]uint64
	universe []core.Key // every key any run holds, plus absent neighbours
	absent   []core.Key // keys no run holds
}

// newRunSet builds n runs over a base of baseLen distinct keys. The
// base (runs[0]) repeats every 5th key and stores a zero payload for
// every 7th; each newer run draws a third of its entries as tombstones
// over a shared candidate pool (base keys and fresh ones), so
// tombstones shadow older live keys and live keys shadow older
// tombstones at random — and two pinned keys force one of each. empty
// names a run index to leave empty (-1 for none; the base is never
// emptied).
func newRunSet(t *testing.T, family string, n, baseLen, empty int, seed int64) runSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rs := runSet{oracle: map[core.Key]uint64{}}

	var bk []core.Key
	var bv []uint64
	var pool []core.Key
	for i := 0; i < baseLen; i++ {
		k := core.Key(i)*8 + 8
		v := uint64(len(bk)) + 1
		if i%7 == 0 {
			v = 0
		}
		rs.oracle[k] = v // the first occurrence answers for a duplicate run
		for d := 0; d < 1+(i%5)/4*2; d++ {
			bk = append(bk, k)
			bv = append(bv, v+uint64(d)*1000)
		}
		pool = append(pool, k, k+3)               // a base key and a fresh one
		rs.universe = append(rs.universe, k, k+3) // k+3 may be inserted above
		rs.absent = append(rs.absent, k+5)        // never inserted anywhere
	}
	rs.universe = append(rs.universe, rs.absent...)
	rs.universe = append(rs.universe, 0, ^core.Key(0))
	rs.runs = append(rs.runs, buildRun(t, family, bk, bv, nil))

	shadowed, revived := bk[len(bk)/2], bk[len(bk)/3]
	for r := 1; r < n; r++ {
		if r == empty {
			rs.runs = append(rs.runs, Empty(nil))
			continue
		}
		type entry struct {
			val  uint64
			tomb bool
		}
		entries := map[core.Key]entry{}
		for i := 0; i < len(pool)/4; i++ {
			k := pool[rng.Intn(len(pool))]
			entries[k] = entry{uint64(rng.Intn(4)) * uint64(r), rng.Intn(3) == 2}
		}
		// Pinned: a tombstone over a live base key in the first upper
		// run; a tombstone there revived by a live key one run newer.
		if r == 1 {
			entries[shadowed] = entry{tomb: true}
			entries[revived] = entry{tomb: true}
		}
		if r == 2 {
			entries[revived] = entry{val: 4242}
		}
		var ks []core.Key
		for k := range entries {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		vs := make([]uint64, len(ks))
		tb := make([]bool, len(ks))
		for i, k := range ks {
			vs[i], tb[i] = entries[k].val, entries[k].tomb
			if tb[i] {
				delete(rs.oracle, k)
			} else {
				rs.oracle[k] = vs[i]
			}
		}
		rs.runs = append(rs.runs, buildRun(t, family, ks, vs, tb))
	}
	return rs
}

// wantProbes counts, independently of the code under test, the runs a
// newest-first read of x probes: every non-empty run down to the first
// that holds x.
func wantProbes(runs []*Table, x core.Key) int {
	n := 0
	for r := len(runs) - 1; r >= 0; r-- {
		keys := runs[r].Keys()
		if len(keys) == 0 {
			continue
		}
		n++
		if p := core.LowerBound(keys, x); p < len(keys) && keys[p] == x {
			break
		}
	}
	return n
}

// checkRunSet holds GetBatchRuns (with and without a found array),
// GetRuns, and Table.GetBatch at N = 1 to the oracle for one batch.
func checkRunSet(t *testing.T, rs runSet, batch []core.Key, label string) {
	t.Helper()
	out := make([]uint64, len(batch))
	found := make([]bool, len(batch))
	for i := range out {
		out[i], found[i] = 0xdead, true // stale outputs must be overwritten
	}
	hits, probes := GetBatchRuns(rs.runs, batch, out, found)
	wantHits, wantP := 0, 0
	for i, x := range batch {
		wantV, wantOK := rs.oracle[x]
		if wantOK {
			wantHits++
		}
		if out[i] != wantV || found[i] != wantOK {
			t.Fatalf("%s: GetBatchRuns key %d -> (%d,%v), want (%d,%v)", label, x, out[i], found[i], wantV, wantOK)
		}
		p := wantProbes(rs.runs, x)
		wantP += p
		if v, ok, gp := GetRuns(rs.runs, x); v != wantV || ok != wantOK || gp != p {
			t.Fatalf("%s: GetRuns(%d) = (%d,%v,%d), want (%d,%v,%d)", label, x, v, ok, gp, wantV, wantOK, p)
		}
	}
	if hits != wantHits || probes != wantP {
		t.Fatalf("%s: GetBatchRuns (hits,probes) = (%d,%d), want (%d,%d)", label, hits, probes, wantHits, wantP)
	}

	bare := make([]uint64, len(batch))
	for i := range bare {
		bare[i] = 0xdead
	}
	if h, p := GetBatchRuns(rs.runs, batch, bare, nil); h != hits || p != probes {
		t.Fatalf("%s: nil found array changed (hits,probes) to (%d,%d)", label, h, p)
	}
	for i := range bare {
		if bare[i] != out[i] {
			t.Fatalf("%s: nil found array changed out[%d] to %d", label, i, bare[i])
		}
	}

	if len(rs.runs) == 1 {
		for i := range bare {
			bare[i] = 0xdead
		}
		if h := rs.runs[0].GetBatch(batch, bare); h != hits {
			t.Fatalf("%s: Table.GetBatch found %d, GetBatchRuns %d", label, h, hits)
		}
		for i := range bare {
			if bare[i] != out[i] {
				t.Fatalf("%s: Table.GetBatch out[%d] = %d, want %d", label, i, bare[i], out[i])
			}
		}
	}
}

// batches returns the probe batches every run-set shape is checked
// with: the whole universe (several blocks) shuffled and sorted, an
// all-miss batch, one short of a block, and the empty batch.
func batches(rs runSet, seed int64) map[string][]core.Key {
	shuffled := append([]core.Key(nil), rs.universe...)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	sorted := append([]core.Key(nil), shuffled...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return map[string][]core.Key{
		"shuffled": shuffled,
		"sorted":   sorted,
		"all-miss": rs.absent,
		"short":    shuffled[:batchBlock-1],
		"empty":    nil,
	}
}

// TestRunSetOracle checks the run-set read path directly (it used to be
// reached only through the serving layer's tests): N = 1..4 runs, with
// an empty run in the middle and on top, duplicates and zero payloads
// in the base, tombstones and revivals across runs, batches longer than
// a block, sorted and shuffled.
func TestRunSetOracle(t *testing.T) {
	for _, family := range []string{"PGM", "BTree"} {
		for n := 1; n <= 4; n++ {
			empties := []int{-1}
			if n >= 3 {
				empties = append(empties, n/2) // in the middle
			}
			if n >= 2 {
				empties = append(empties, n-1) // on top: the in-place probe starts one run down
			}
			for _, empty := range empties {
				rs := newRunSet(t, family, n, 700, empty, int64(10*n+empty))
				if len(rs.universe) <= 2*batchBlock {
					t.Fatalf("universe of %d keys does not span several blocks", len(rs.universe))
				}
				for name, batch := range batches(rs, 5) {
					checkRunSet(t, rs, batch, fmt.Sprintf("%s/n=%d/empty=%d/%s", family, n, empty, name))
				}
			}
		}
	}
}

// TestRunSetPipelined repeats the check over a base large enough to
// take the pipelined probe rounds, which small runs skip.
func TestRunSetPipelined(t *testing.T) {
	rs := newRunSet(t, "PGM", 3, pipelineMinKeys, -1, 77)
	if rs.runs[0].Len() < pipelineMinKeys {
		t.Fatalf("base of %d keys is below the pipeline gate", rs.runs[0].Len())
	}
	for name, batch := range batches(rs, 9) {
		if len(batch) > 8*batchBlock {
			batch = batch[:8*batchBlock]
		}
		checkRunSet(t, rs, batch, "pipelined/"+name)
	}
}

// TestRunSetAllEmpty: with no non-empty run nothing is probed, and the
// outputs must still be cleared.
func TestRunSetAllEmpty(t *testing.T) {
	for _, runs := range [][]*Table{nil, {Empty(nil)}, {Empty(nil), Empty(nil)}} {
		rs := runSet{runs: runs, oracle: map[core.Key]uint64{}}
		checkRunSet(t, rs, []core.Key{3, 1, 2}, fmt.Sprintf("%d empty runs", len(runs)))
	}
}

// TestFindBlockMatchesFind: the block kernel and the scalar Find
// agree on position and presence for every key, on runs small and
// large, empty, and with duplicates.
func TestFindBlockMatchesFind(t *testing.T) {
	small := newRunSet(t, "RMI", 2, 700, -1, 3)
	large := newRunSet(t, "PGM", 1, pipelineMinKeys, -1, 4)
	for name, c := range map[string]struct {
		run   *Table
		batch []core.Key
	}{
		"base":      {small.runs[0], small.universe},
		"tier":      {small.runs[1], small.universe},
		"pipelined": {large.runs[0], large.universe[:4*batchBlock+7]},
		"empty":     {Empty(nil), small.universe[:300]},
	} {
		var s runScratch
		for off := 0; off < len(c.batch); off += batchBlock {
			chunk := c.batch[off:min(off+batchBlock, len(c.batch))]
			pos, hit := s.pos[:len(chunk)], s.hit[:len(chunk)]
			c.run.findBlock(chunk, pos, hit, s.bounds[:len(chunk)])
			for i, x := range chunk {
				if p, ok := c.run.find(x); int(pos[i]) != p || hit[i] != ok {
					t.Fatalf("%s: findBlock key %d -> (%d,%v), Find (%d,%v)", name, x, pos[i], hit[i], p, ok)
				}
			}
		}
	}
}
