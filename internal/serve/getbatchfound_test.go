package serve

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestGetBatchFound holds the per-key found bits, the counts and Len to
// a map oracle (and to Get) across the cases where out alone is
// ambiguous: zero payloads (base and delta), tombstones over base keys,
// fresh delta inserts, and absent keys — on dirty shards, with a merge
// parked mid-flight (a frozen delta under a fresh active one), and
// after compaction; over a stacked tier run (the default policy) and
// over the single run that MaxRuns 1 keeps, which is a policy value on
// the same read path.
func TestGetBatchFound(t *testing.T) {
	for _, maxRuns := range []int{0, 1} {
		t.Run(fmt.Sprintf("MaxRuns=%d", maxRuns), func(t *testing.T) {
			keys, payloads := testData(t, 4000)
			oracle := make(map[core.Key]uint64, len(keys))
			for i, k := range keys {
				if i%7 == 0 {
					payloads[i] = 0 // zero payloads in the base on purpose
				}
				oracle[k] = payloads[i]
			}
			// No background compactor: the test flushes by hand, so the
			// merge it parks below is the only one there is.
			cfg, g := gatedConfig(Config{Shards: 4, CompactThreshold: -1, MaxRuns: maxRuns}, "RBS")
			st, err := New(keys, payloads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			put := func(k core.Key, v uint64) { st.Put(k, v); oracle[k] = v }
			del := func(k core.Key) { st.Delete(k); delete(oracle, k) }

			rng := rand.New(rand.NewSource(3))
			var fresh []core.Key
			for i := 0; i < 200; i++ {
				k := keys[rng.Intn(len(keys))] + 1
				put(k, uint64(i%3)) // zeros among the delta inserts too
				fresh = append(fresh, k)
			}
			for i := 0; i < len(keys); i += 11 {
				del(keys[i]) // tombstones over base keys
			}
			// One compaction round per shard: the default policy stacks a
			// tier run on the base, MaxRuns 1 re-merges its single run.
			// A last few writes then leave shard 0 dirty.
			for i := range st.shards {
				if err := st.compactShard(i, false); err != nil {
					t.Fatal(err)
				}
				if n := st.runCount(i); (maxRuns == 1) != (n == 1) {
					t.Fatalf("MaxRuns %d left shard %d with %d runs", maxRuns, i, n)
				}
			}
			for i := 0; i < 30; i++ {
				put(keys[i*5]+1, uint64(i%2))
				del(keys[i*5+2])
				fresh = append(fresh, keys[i*5]+1)
			}

			check := func(stage string) {
				t.Helper()
				var probes []core.Key
				probes = append(probes, keys[:500]...)
				probes = append(probes, fresh...)
				for i := 0; i < 200; i++ {
					probes = append(probes, core.Key(rng.Uint64()))
				}
				out := make([]uint64, len(probes))
				fbits := make([]bool, len(probes))
				n := st.GetBatchFound(probes, out, fbits)
				plain := make([]uint64, len(probes))
				if m := st.GetBatch(probes, plain); m != n {
					t.Fatalf("%s: GetBatchFound count %d != GetBatch %d", stage, n, m)
				}
				nbits := 0
				for i, x := range probes {
					wantV, wantOK := oracle[x]
					if out[i] != wantV || plain[i] != wantV || fbits[i] != wantOK {
						t.Fatalf("%s: key %d: batch (%d,%v), plain %d, want (%d,%v)", stage, x, out[i], fbits[i], plain[i], wantV, wantOK)
					}
					if v, ok := st.Get(x); v != wantV || ok != wantOK {
						t.Fatalf("%s: Get(%d) = (%d,%v), want (%d,%v)", stage, x, v, ok, wantV, wantOK)
					}
					if fbits[i] {
						nbits++
					}
				}
				if nbits != n {
					t.Fatalf("%s: %d found bits set, count says %d", stage, nbits, n)
				}
				if st.Len() != len(oracle) {
					t.Fatalf("%s: Len = %d, want %d", stage, st.Len(), len(oracle))
				}
			}

			check("dirty")

			// Park shard 0's merge: its delta is frozen, and these writes
			// go to a fresh active delta that must shadow it — a live
			// zero over a frozen tombstone, a tombstone over a frozen
			// insert, a revived base key.
			release := parkCompact(t, st, g)
			put(keys[2], 0)
			put(keys[0], 0)
			for _, k := range fresh[len(fresh)-20:] {
				del(k)
			}
			check("frozen in flight")
			release()
			check("compacted")
		})
	}
}
