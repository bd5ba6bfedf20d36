package serve

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestCompactionStepGolden pins what a compaction round does — which
// steps it takes, in which order, over how many runs and keys, and
// which counters move — for every arm of the tiering policy. Nothing
// in it depends on timing: background compaction is off, the shard is
// driven round by round through compactShard, and chooseMajor prices
// its choice from the family, the run lengths and a read window the row
// sets. Each merge row's family and window put it on its arm: with no
// reads a PGM shard folds its upper runs (minor), 512 reads a round make
// the major worth its rewrite, and an RMI shard's re-tune (13 key
// visits a key) outprices the 4,096 reads of an amplification trigger
// when they would each save the 6 probes of 23 upper keys, not when they
// would save the 7 of 127. The want strings were recorded at commit
// d6bb883, where flush, minor and major were three separate blocks of
// buildCompacted; they are the reference the single merge step is held
// to.
func TestCompactionStepGolden(t *testing.T) {
	type round struct {
		writes int  // seeded puts/deletes before the round
		amp    bool // push the read-amp window over the bound first
		force  bool // the Compact() entry instead of the compactor's
	}
	flushes := func(n int) []round {
		rs := make([]round, n)
		for i := range rs {
			rs[i].writes = 50
		}
		return rs
	}
	for _, row := range []struct {
		name    string
		family  string
		maxRuns int
		reads   int64 // read-window ops added before each round, one run probe each
		rounds  []round
		want    string
	}{
		{"tiered under the bound", "PGM", 4, 0, flushes(3),
			"flush 1>2 44, flush 2>3 41, flush 3>4 42 | flushes=3 minors=0 majors=0 freezes=3 runs=4"},
		{"over MaxRuns, minor", "PGM", 3, 0, flushes(5),
			"flush 1>2 44, flush 2>3 41, flush 3>4 42, minor 4>2 100, flush 2>3 45, flush 3>4 40, minor 4>2 122 | flushes=5 minors=2 majors=0 freezes=5 runs=2"},
		{"over MaxRuns, major", "PGM", 3, 512, flushes(5),
			"flush 1>2 44, flush 2>3 41, flush 3>4 42, major 4>1 2032, flush 1>2 45, flush 2>3 40 | flushes=5 minors=0 majors=1 freezes=5 runs=3"},
		{"amp-triggered merge-only rounds", "RMI", 8, 0,
			append(flushes(3), round{amp: true}, round{}, round{amp: true}),
			"flush 1>2 44, flush 2>3 41, flush 3>4 42, major 4>1 2032 | flushes=3 minors=0 majors=1 freezes=3 runs=1"},
		{"amp-triggered minor over small upper runs", "RMI", 8, 0,
			[]round{{writes: 12}, {writes: 12}, {amp: true}},
			"flush 1>2 12, flush 2>3 11, minor 3>2 23 | flushes=2 minors=1 majors=0 freezes=2 runs=2"},
		{"force", "PGM", 4, 0,
			append(flushes(2), round{writes: 50, force: true}, round{force: true}, round{writes: 50}, round{force: true}),
			"flush 1>2 44, flush 2>3 41, major 3>1 2032, flush 1>2 45, major 2>1 2040 | flushes=3 minors=0 majors=2 freezes=3 runs=1"},
		{"MaxRuns 1", "PGM", 1, 0, flushes(3),
			"major 1>1 2022, major 1>1 2028, major 1>1 2032 | flushes=0 minors=0 majors=3 freezes=0 runs=1"},
	} {
		t.Run(row.name, func(t *testing.T) {
			keys, payloads := testData(t, 2000)
			journal := obs.NewJournal(64)
			st, err := New(keys, payloads, Config{
				Shards: 1, Family: row.family, CompactThreshold: -1, MaxRuns: row.maxRuns, Journal: journal,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			rng := testRNG{s: 7}
			oracle := make(map[core.Key]uint64, len(keys))
			for i, k := range keys {
				oracle[k] = payloads[i]
			}
			universe := append([]core.Key(nil), keys...)
			known := make(map[core.Key]bool, len(keys))
			for _, k := range keys {
				known[k] = true
			}
			for _, r := range row.rounds {
				for w := 0; w < r.writes; w++ {
					k := keys[rng.intn(80)*25] // a small pool: rounds rewrite each other's keys
					switch rng.intn(4) {
					case 0:
						st.Delete(k)
						delete(oracle, k)
						continue
					case 1: // update in place
					default:
						k++ // a key the base does not hold (or its neighbour)
					}
					if !known[k] {
						known[k] = true
						universe = append(universe, k)
					}
					v := rng.next()
					st.Put(k, v)
					oracle[k] = v
				}
				if r.amp {
					st.stats[0].probes.Add(3 * ampMinWindow)
					st.stats[0].ops.Add(ampMinWindow)
				}
				st.stats[0].probes.Add(row.reads)
				st.stats[0].ops.Add(row.reads)
				if err := st.compactShard(0, r.force); err != nil {
					t.Fatal(err)
				}
				if s := st.shards[0].Load(); s.frozen != nil || s.del.len() != 0 {
					t.Fatalf("round left %d pending, frozen=%v", s.del.len(), s.frozen != nil)
				}
			}
			var steps []string
			for _, e := range journal.Events() {
				steps = append(steps, fmt.Sprintf("%s %d>%d %d", e.Kind, e.RunsBefore, e.RunsAfter, e.Keys))
			}
			got := fmt.Sprintf("%s | flushes=%d minors=%d majors=%d freezes=%d runs=%d", strings.Join(steps, ", "),
				st.Flushes(), st.MinorMerges(), st.MajorMerges(), st.deltaFreezes.Load(), st.runCount(0))
			if got != row.want {
				t.Errorf("compaction steps moved:\n got  %s\n want %s", got, row.want)
			}
			checkOracle(t, st, oracle, universe, "after the rounds")
		})
	}
}
