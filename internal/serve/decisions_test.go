package serve

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// scriptOp is one op of a seeded merge script: a get, a put or a delete.
type scriptOp struct {
	kind int // 0 get, 1 put, 2 delete
	key  core.Key
	val  uint64
}

// mergeScript returns n seeded ops over keys: puts of new keys and of
// existing ones, deletes, and — with reads — gets, nine in every ten
// ops, enough that the read window weighs in on a cheap shard's choice.
func mergeScript(keys []core.Key, n int, reads bool) []scriptOp {
	rng := testRNG{s: 38}
	ops := make([]scriptOp, n)
	for i := range ops {
		k := keys[rng.intn(len(keys))]
		switch {
		case reads && rng.intn(10) > 0:
			ops[i] = scriptOp{0, k, 0}
		case rng.intn(4) == 0:
			ops[i] = scriptOp{2, k, 0}
		default:
			ops[i] = scriptOp{1, k + core.Key(rng.intn(2)), rng.next()}
		}
	}
	return ops
}

// play applies ops to st, waiting out the compactions each one queues,
// so every merge decision is taken on the state the ops before it left.
func play(st *Store, ops []scriptOp) {
	for _, op := range ops {
		switch op.kind {
		case 0:
			st.Get(op.key)
		case 1:
			st.Put(op.key, op.val)
		case 2:
			st.Delete(op.key)
		}
		st.WaitCompactions()
	}
}

// decisionConfig is the scripted stores' configuration: two shards, a
// flush every 8 writes, and a merge choice once a shard holds four runs.
func decisionConfig(family string, j *obs.Journal) Config {
	return Config{Shards: 2, Family: family, CompactThreshold: 8, MaxRuns: 3, Journal: j}
}

// scriptedStore builds a store of family over 2,000 keys and plays ops on
// it, returning the store and its journal.
func scriptedStore(t *testing.T, family string, ops []scriptOp) (*Store, *obs.Journal) {
	t.Helper()
	keys, payloads := testData(t, 2000)
	j := obs.NewJournal(1 << 14)
	st, err := New(keys, payloads, decisionConfig(family, j))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	play(st, ops)
	return st, j
}

// decisions lists a journal's steps as (shard, kind, runs before).
func decisions(t *testing.T, j *obs.Journal) []string {
	t.Helper()
	events := j.Events()
	if uint64(len(events)) != j.Total() {
		t.Fatalf("journal evicted %d events", j.Total()-uint64(len(events)))
	}
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = fmt.Sprintf("%d %s %d", e.Shard, e.Kind, e.RunsBefore)
	}
	return out
}

// count is how many of ds are steps of kind.
func count(ds []string, kind string) (n int) {
	for _, d := range ds {
		if strings.Fields(d)[1] == kind {
			n++
		}
	}
	return n
}

// TestMergeDecisionsSameUnderGOMAXPROCS: a store's merges follow from
// its op sequence. The same seeded script of gets, puts and deletes
// takes the same (shard, kind, run count) steps in 20 runs at each of
// GOMAXPROCS 1, 2 and 8; and an RMI store, whose major re-tunes, folds
// its upper runs more often than a BTree store, whose major is a bulk
// load, under that same script.
func TestMergeDecisionsSameUnderGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	keys, _ := testData(t, 2000)
	ops := mergeScript(keys, 3000, true)
	var want []string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 20; run++ {
			st, j := scriptedStore(t, "RMI", ops)
			got := decisions(t, j)
			st.Close()
			if want == nil {
				want = got
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("GOMAXPROCS=%d run %d: steps\n%v\nwant\n%v", procs, run, got, want)
			}
		}
	}
	_, bj := scriptedStore(t, "BTree", ops)
	bt := decisions(t, bj)
	rmiMinors, btMinors := count(want, "minor"), count(bt, "minor")
	if rmiMinors <= btMinors {
		t.Fatalf("RMI chose %d minors, BTree %d: a re-tune must make the fold cheaper by comparison", rmiMinors, btMinors)
	}
	t.Logf("RMI: %d minors, %d majors; BTree: %d minors, %d majors",
		rmiMinors, count(want, "major"), btMinors, count(bt, "major"))
}

// TestMergeDecisionsSurviveRestart: a store opened from a snapshot taken
// mid-script merges exactly as the store that never closed, because the
// choice reads nothing a restart resets but the read window, and the
// script has no reads. A price learned from the store's own past merges
// would restart empty, and an RMI store would re-tune every shard on its
// first merge after Open.
func TestMergeDecisionsSurviveRestart(t *testing.T) {
	keys, _ := testData(t, 2000)
	ops := mergeScript(keys, 900, false)
	half := len(ops) / 2
	st, j := scriptedStore(t, "RMI", ops[:half])
	before := len(decisions(t, j))
	if count(decisions(t, j), "major")+count(decisions(t, j), "minor") == 0 {
		t.Fatal("no merge before the restart point: the script is too short")
	}
	dir := t.TempDir()
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	wj := obs.NewJournal(1 << 14)
	warm, err := Open(dir, decisionConfig("", wj))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	play(st, ops[half:])
	play(warm, ops[half:])
	want, got := decisions(t, j)[before:], decisions(t, wj)
	if count(want, "minor")+count(want, "major") == 0 {
		t.Fatal("no merge after the restart point: the script is too short")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("reopened store steps\n%v\nwant (never closed)\n%v", got, want)
	}
}

// TestJournalExplainsMergeKinds: every minor and major event carries the
// prices its choice compared, so its kind follows from its own fields —
// a major exactly when ExtraWork <= WindowOps * ProbeWork.
func TestJournalExplainsMergeKinds(t *testing.T) {
	keys, _ := testData(t, 2000)
	ops := mergeScript(keys, 3000, true)
	priced := map[string]int{}
	for _, family := range []string{"RMI", "BTree"} {
		_, j := scriptedStore(t, family, ops)
		for _, e := range j.Events() {
			if e.Kind == "flush" {
				continue
			}
			kind := "minor"
			if e.ExtraWork <= e.WindowOps*e.ProbeWork {
				kind = "major"
			}
			if kind != e.Kind {
				t.Errorf("%s event %d: kind %s, but its prices say %s: %+v", family, e.Seq, e.Kind, kind, e)
			}
			if e.ExtraWork > 0 {
				priced[e.Kind]++
			}
		}
	}
	if priced["minor"] == 0 || priced["major"] == 0 {
		t.Fatalf("the script must price both kinds: priced %v", priced)
	}
}
