//go:build !race

// Package ledger is the work ledger: one test that prices every layer a
// request crosses in counts that are exact at a fixed seed and scale,
// and holds them to testdata/ledger.golden. Its rows, in layer order:
//
//   - index: bytes per key, mean bound width, and perfsim's simulated
//     cache misses, instructions and branch misses per lookup, for every
//     family perfsim traces over the four datasets, and the share of the
//     RMI's leaves that no key routes to;
//   - table: allocations per Get, GetBatch and GetBatchRuns;
//   - store: allocations per clean and dirty Get, per GetBatch and per
//     detached, hooked and attached Put, run probes per read after a
//     scripted sequence of writes and flushes, and the flushes, merges,
//     keys rewritten per written key and run probes per read of a
//     scripted sequence that takes one minor and one major merge, and
//     the files and snapshot bytes its first flush, its minor and its
//     major commit when it is replayed on a store opened from a
//     snapshot;
//   - persist: WAL bytes and fsyncs per put, snapshot bytes per key and
//     per put;
//   - net: frames and bytes per one-in-flight point get, batch get and
//     put, counted by a loopback proxy between client and server;
//   - codec and repl: allocations of a reused encoder and of a stream-log
//     append on a full ring.
//
// A changed row fails the test by name. A change that moves a row on
// purpose regenerates the file in the same diff, so the move is a
// reviewed line:
//
//	LEDGER_WRITE_GOLDEN=1 go test -run TestLedger ./internal/ledger/
//
// Nothing here is a timing (benchmark/ measures those), and nothing
// depends on scheduling: allocation counts are taken on calls whose
// work does not fan out by GOMAXPROCS, and background compaction is
// either off or waited out after each write that triggers it. The test
// is excluded under -race, where sync.Pool drops items on purpose.
package ledger

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	stdnet "net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/binio"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/perfsim"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/repl"
	"repro/internal/rmi"
	"repro/internal/serve"
	"repro/internal/table"
)

const (
	seed         = 42
	indexKeys    = 200_000 // per dataset, for the index and table rows
	indexLookups = 20_000
	storeKeys    = 20_000 // for the store, persist and net rows
	goldenPath   = "testdata/ledger.golden"
)

// families are the paper's four headline families, in row order;
// indexFamilies adds the other families perfsim traces, whose index
// rows hold each simulated descent to its count.
var (
	families      = []string{"RMI", "PGM", "RS", "BTree"}
	indexFamilies = append(families[:len(families):len(families)], "RBS", "IBTree", "ART", "FAST", "RobinHash")
)

// ledger collects rows in the order they are measured.
type ledger struct{ rows []string }

func (l *ledger) add(name string, v float64) {
	l.rows = append(l.rows, name+" "+strconv.FormatFloat(v, 'g', 6, 64))
}

func (l *ledger) ratio(name string, num, den uint64) { l.add(name, float64(num)/float64(den)) }

// allocs is allocations per call of f, after one warm-up call.
func allocs(f func()) float64 { return testing.AllocsPerRun(200, f) }

func TestLedger(t *testing.T) {
	var l ledger
	tables := indexRows(t, &l)
	tableRows(t, &l, tables)
	keys := dataset.MustGenerate(dataset.Amzn, storeKeys, seed)
	payloads := dataset.Payloads(len(keys), seed)
	storeRows(t, &l, keys, payloads)
	tieredRows(t, &l, keys, payloads)
	mergeRows(t, &l, keys, payloads)
	mergeCommitRows(t, &l, keys, payloads)
	persistRows(t, &l, keys, payloads)
	netRows(t, &l, keys, payloads)
	codecRows(&l)

	got := strings.Join(l.rows, "\n") + "\n"
	if os.Getenv("LEDGER_WRITE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, diff := range diffRows(string(data), got) {
		t.Error(diff)
	}
	if t.Failed() {
		t.Log("a deliberate change regenerates the golden: LEDGER_WRITE_GOLDEN=1 go test -run TestLedger ./internal/ledger/")
	}
}

// diffRows names every row whose value moved, that is new, or that is
// gone, in golden order then new-row order.
func diffRows(golden, got string) []string {
	parse := func(s string) (names []string, vals map[string]string) {
		vals = map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
			name, val, _ := strings.Cut(line, " ")
			names = append(names, name)
			vals[name] = val
		}
		return names, vals
	}
	wantNames, want := parse(golden)
	gotNames, have := parse(got)
	var diffs []string
	for _, name := range wantNames {
		switch v, ok := have[name]; {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s: gone (golden %s)", name, want[name]))
		case v != want[name]:
			diffs = append(diffs, fmt.Sprintf("%s: %s, golden %s", name, v, want[name]))
		}
	}
	for _, name := range gotNames {
		if _, ok := want[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: new row %s", name, have[name]))
		}
	}
	return diffs
}

// indexRows builds every traced family's mid-ladder index on every
// dataset and returns the amzn tables of families the table rows reuse.
func indexRows(t *testing.T, l *ledger) map[string]*table.Table {
	tables := map[string]*table.Table{}
	for _, ds := range dataset.All() {
		keys := dataset.MustGenerate(ds, indexKeys, seed)
		lookups := dataset.Lookups(keys, indexLookups, seed)
		for i, family := range indexFamilies {
			nb, ok := registry.Builder(family, keys)
			if !ok {
				t.Fatalf("no builder for %s", family)
			}
			idx, err := nb.Builder.Build(keys)
			if err != nil {
				t.Fatalf("%s on %s: %v", family, ds, err)
			}
			row := fmt.Sprintf("index.%s.%s.", strings.ToLower(family), ds)
			l.add(row+"bytes_per_key", float64(idx.SizeBytes())/float64(len(keys)))
			width := 0
			for _, x := range lookups {
				width += idx.Lookup(x).Width()
			}
			l.ratio(row+"bound_width", uint64(width), uint64(len(lookups)))
			c := simulate(t, idx, keys, lookups)
			l.ratio(row+"sim_misses", c.CacheMisses, uint64(len(lookups)))
			l.ratio(row+"sim_instructions", c.Instructions, uint64(len(lookups)))
			l.ratio(row+"sim_branch_misses", c.BranchMisses, uint64(len(lookups)))
			if r, ok := idx.(*rmi.Index); ok {
				l.ratio(row+"empty_leaf_frac", emptyLeaves(r, keys), uint64(r.Arrays()[1].Len))
			}
			if ds == dataset.Amzn && i < len(families) {
				tbl, err := table.New(keys, dataset.Payloads(len(keys), seed), idx, nil)
				if err != nil {
					t.Fatal(err)
				}
				tables[family] = tbl
			}
		}
	}
	return tables
}

// emptyLeaves counts the leaves of r that none of keys routes to. The
// leaf array is r's second.
func emptyLeaves(r *rmi.Index, keys []core.Key) uint64 {
	hit := make([]bool, r.Arrays()[1].Len)
	var leaf leafRead
	for _, x := range keys {
		r.Trace(x, &leaf)
		hit[leaf] = true
	}
	empty := uint64(0)
	for _, h := range hit {
		if !h {
			empty++
		}
	}
	return empty
}

// simulate replays the lookups on perfsim's machine, as fig12 does —
// one byte of simulated cache per key, one warm pass — and returns the
// counters of the second pass.
func simulate(t *testing.T, idx core.Index, keys, lookups []core.Key) perfsim.Counters {
	m := perfsim.New(perfsim.CacheFor(len(keys)))
	tr, ok := perfsim.For(idx, m, keys)
	if !ok {
		t.Fatalf("no traced form of %T", idx)
	}
	for _, x := range lookups {
		tr.Lookup(x)
	}
	m.ResetCounters()
	for _, x := range lookups {
		tr.Lookup(x)
	}
	return m.Counters()
}

// tableRows prices the table layer over the amzn tables: a point Get
// and a 256-key GetBatch per family, and a GetBatchRuns over a base run
// and two tier runs that shadow part of it.
func tableRows(t *testing.T, l *ledger, tables map[string]*table.Table) {
	base := tables["PGM"]
	probes := dataset.Lookups(base.Keys(), 256, seed)
	out := make([]uint64, len(probes))
	for _, family := range families {
		tbl := tables[family]
		i := 0
		row := "table." + strings.ToLower(family) + "."
		l.add(row+"get_allocs", allocs(func() { tbl.Get(probes[i%len(probes)]); i++ }))
		l.add(row+"getbatch_allocs", allocs(func() { tbl.GetBatch(probes, out) }))
	}
	runs := []*table.Table{base, tierRun(t, base, 7), tierRun(t, base, 11)}
	found := make([]bool, len(probes))
	_, probed := table.GetBatchRuns(runs, probes, out, found)
	l.ratio("table.getbatchruns.probes_per_key", uint64(probed), uint64(len(probes)))
	l.add("table.getbatchruns.allocs", allocs(func() { table.GetBatchRuns(runs, probes, out, found) }))
}

// tierRun is a run over every stride-th key of base with new payloads
// and every third of them a tombstone.
func tierRun(t *testing.T, base *table.Table, stride int) *table.Table {
	var keys []core.Key
	var vals []uint64
	var tombs []bool
	for i := 0; i < base.Len(); i += stride {
		keys = append(keys, base.Keys()[i])
		vals = append(vals, uint64(i)<<8|uint64(stride))
		tombs = append(tombs, len(keys)%3 == 0)
	}
	nb, _ := registry.Tier("PGM", keys)
	tbl, err := table.BuildTombed(nb.Builder, keys, vals, tombs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// storeConfig is every ledger store's: two shards served by two
// workers whatever the CPU count, background compaction off.
func storeConfig() serve.Config {
	return serve.Config{Shards: 2, Workers: 2, Family: "PGM", CompactThreshold: -1}
}

func newStore(t *testing.T, keys []core.Key, payloads []uint64, cfg serve.Config) *serve.Store {
	st, err := serve.New(keys, payloads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// putter returns a Put of a key above every key the store holds, a new
// one per call, so every measured Put takes the same insert path.
func putter(st *serve.Store, keys []core.Key) func() {
	next := keys[len(keys)-1]
	return func() {
		next++
		st.Put(next, uint64(next))
	}
}

// storeRows prices Store's read and write paths on a compacted store.
func storeRows(t *testing.T, l *ledger, keys []core.Key, payloads []uint64) {
	st := newStore(t, keys, payloads, storeConfig())
	probes := dataset.Lookups(keys, 256, seed)
	out := make([]uint64, len(probes))
	i := 0
	get := func() { st.Get(probes[i%len(probes)]); i++ }
	l.add("store.get_clean_allocs", allocs(get))
	l.add("store.getbatch_allocs", allocs(func() { st.GetBatch(probes, out) }))
	l.add("store.put_detached_allocs", allocs(putter(st, keys)))
	l.add("store.get_dirty_allocs", allocs(get))

	cfg := storeConfig()
	cfg.WriteHook = repl.NewLog(2).Hook()
	hooked := newStore(t, keys, payloads, cfg)
	l.add("store.put_hooked_allocs", allocs(putter(hooked, keys)))
}

// tieredRows replays a scripted write sequence on one tiered shard —
// three delta fills, each flushed into a tier run and waited out, then
// a partial fill — and counts run probes per read over a fixed read
// set. The tiering bounds are set so that only flushes happen: no merge
// choice is taken (mergeRows prices one of each kind).
func tieredRows(t *testing.T, l *ledger, keys []core.Key, payloads []uint64) {
	const fill = 256
	st := newStore(t, keys, payloads, serve.Config{
		Shards: 1, Family: "PGM", CompactThreshold: fill, MaxRuns: 8, AmpBound: 1e9,
	})
	r := rand.New(rand.NewPCG(seed, 0))
	for w := 0; w < 3*fill+fill/2; w++ {
		k := keys[r.IntN(len(keys))]
		switch r.IntN(4) {
		case 0:
			st.Delete(k)
		case 1:
			st.Put(k, r.Uint64())
		default:
			st.Put(k+1, r.Uint64())
		}
		st.WaitCompactions()
	}
	l.add("store.tiered.runs", float64(st.MaxRunCount()))
	l.add("store.tiered.flushes", float64(st.Flushes()))
	l.add("store.tiered.delta_len", float64(st.DeltaLen()))
	reads := dataset.Lookups(keys, 4096, seed+1)
	for _, x := range reads {
		st.Get(x)
	}
	l.add("store.tiered.probes_per_read", st.ReadAmp())
	i := 0
	l.add("store.tiered.get_allocs", allocs(func() { st.Get(reads[i%len(reads)]); i++ }))
}

// mergeRows replays a scripted write sequence on one tiered shard that
// takes both merge kinds. Writes stack tier runs until the shard holds
// one over the bound and folds its upper runs (minor: no reads yet to
// repay a major's rewrite); a fixed read set then fills the read window,
// and writes stack runs again until the choice comes again, now a major.
// The read set is read after each merge. AmpBound is out of reach, so
// only the run count triggers a merge and a read never queues one.
func mergeRows(t *testing.T, l *ledger, keys []core.Key, payloads []uint64) {
	reg, journal := obs.NewRegistry(), obs.NewJournal(64)
	cfg := mergeConfig()
	cfg.Metrics, cfg.Journal = reg, journal
	st := newStore(t, keys, payloads, cfg)
	script := newMergeScript(st, keys)
	reads := mergeReads(keys)
	// probesPerRead reads the read set once. A read served by a single
	// run probes that run and is not accounted (the store counts
	// multi-run reads only); the write-path waits leave no pending write
	// to answer a read without a probe.
	probesPerRead := func() float64 {
		value := func(id string) float64 { v, _ := reg.Value(id); return v }
		p0, o0 := value("sosd_store_run_probes_total"), value("sosd_store_multirun_ops_total")
		for _, x := range reads {
			st.Get(x)
		}
		probes := value("sosd_store_run_probes_total") - p0
		single := float64(len(reads)) - (value("sosd_store_multirun_ops_total") - o0)
		return (probes + single) / float64(len(reads))
	}
	script.writeUntilMerges(1)
	l.add("store.merge.probes_per_read_after_minor", probesPerRead())
	script.writeUntilMerges(2)
	l.add("store.merge.probes_per_read_after_major", probesPerRead())
	l.add("store.merge.flushes", float64(st.Flushes()))
	l.add("store.merge.minors", float64(st.MinorMerges()))
	l.add("store.merge.majors", float64(st.MajorMerges()))
	rewritten := 0
	for _, e := range journal.Events() {
		rewritten += e.Keys
	}
	l.ratio("store.merge.rewritten_per_write", uint64(rewritten), uint64(script.writes))
}

// mergeCommitRows replays mergeRows' script on a store opened from a
// snapshot and prices what the first flush, the minor and the major
// each commit to its directory: the files the step adds and removes,
// found by diffing the directory's file set around it, and the bytes it
// writes through the atomic-write path. A flush adds one small file
// set, a minor replaces the upper tiers, and only a major rewrites the
// base.
func mergeCommitRows(t *testing.T, l *ledger, keys []core.Key, payloads []uint64) {
	dir := t.TempDir()
	cfg := mergeConfig()
	src := newStore(t, keys, payloads, cfg)
	if err := src.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	src.Close()
	st, err := serve.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)

	files := func() map[string]bool {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, e := range ents {
			set[e.Name()] = true
		}
		return set
	}
	type commit struct{ added, removed, bytes uint64 }
	steps := map[string]commit{}
	prevFiles, prevBytes := files(), persist.CountersNow().SnapshotBytes
	var flushes, minors, majors uint64
	script := newMergeScript(st, keys)
	script.step = func() {
		kind := ""
		switch {
		case st.MajorMerges() > majors:
			kind = "major"
		case st.MinorMerges() > minors:
			kind = "minor"
		case st.Flushes() > flushes:
			kind = "flush"
		}
		flushes, minors, majors = st.Flushes(), st.MinorMerges(), st.MajorMerges()
		if kind == "" {
			return
		}
		now, bytes := files(), persist.CountersNow().SnapshotBytes
		if _, seen := steps[kind]; !seen {
			var c commit
			for f := range now {
				if !prevFiles[f] {
					c.added++
				}
			}
			for f := range prevFiles {
				if !now[f] {
					c.removed++
				}
			}
			c.bytes = bytes - prevBytes
			steps[kind] = c
		}
		prevFiles, prevBytes = now, bytes
	}
	script.writeUntilMerges(1)
	for _, x := range mergeReads(keys) {
		st.Get(x)
	}
	script.writeUntilMerges(2)
	for _, kind := range []string{"flush", "minor", "major"} {
		c, ok := steps[kind]
		if !ok {
			t.Fatalf("merge commit replay took no %s", kind)
		}
		l.add("store.merge.commit."+kind+"_files_added", float64(c.added))
		l.add("store.merge.commit."+kind+"_files_removed", float64(c.removed))
		l.add("store.merge.commit."+kind+"_snapshot_bytes", float64(c.bytes))
	}
}

// mergeConfig is the one tiered PGM shard mergeRows and mergeCommitRows
// script.
func mergeConfig() serve.Config {
	return serve.Config{Shards: 1, Family: "PGM", CompactThreshold: 256, MaxRuns: 3, AmpBound: 1e9}
}

// mergeReads is the read set that fills the read window between the
// script's minor and its major.
func mergeReads(keys []core.Key) []core.Key { return dataset.Lookups(keys, 4096, seed+2) }

// mergeScript is mergeRows' write sequence on one store, the same for
// every store it drives.
type mergeScript struct {
	st     *serve.Store
	keys   []core.Key
	r      *rand.Rand
	writes int
	step   func() // when set, called after each write's compaction is waited out
}

func newMergeScript(st *serve.Store, keys []core.Key) *mergeScript {
	return &mergeScript{st: st, keys: keys, r: rand.New(rand.NewPCG(seed, 1))}
}

// writeUntilMerges writes until the store has taken merges merges in
// all, waiting out each write's compaction.
func (m *mergeScript) writeUntilMerges(merges uint64) {
	for m.st.MinorMerges()+m.st.MajorMerges() < merges {
		k := m.keys[m.r.IntN(len(m.keys))]
		switch m.r.IntN(4) {
		case 0:
			m.st.Delete(k)
		case 1:
			m.st.Put(k, m.r.Uint64())
		default:
			m.st.Put(k+1, m.r.Uint64())
		}
		m.st.WaitCompactions()
		m.writes++
		if m.step != nil {
			m.step()
		}
	}
}

// persistRows prices the attached store: the snapshot that creates its
// directory, the open, whose run bytes are served from the heap or from
// the mapped run files, then puts with one WAL sync each, then the
// checkpoint (Compact) that folds them into the runs and truncates the
// WAL.
func persistRows(t *testing.T, l *ledger, keys []core.Key, payloads []uint64) {
	const puts = 500
	dir := t.TempDir()
	st := newStore(t, keys, payloads, storeConfig())
	c0 := persist.CountersNow()
	if err := st.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	c1 := persist.CountersNow()
	l.ratio("persist.snapshot_bytes_per_key", c1.SnapshotBytes-c0.SnapshotBytes, storeKeys)
	l.add("persist.snapshot_fsyncs", float64(c1.Fsyncs-c0.Fsyncs))

	cfg := storeConfig()
	cfg.SyncWrites = true
	at, err := serve.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(at.Close)
	c2 := persist.CountersNow()
	l.ratio("persist.open_heap_bytes_per_key", c2.RunHeapBytes-c1.RunHeapBytes, storeKeys)
	l.ratio("persist.open_mapped_bytes_per_key", c2.RunMappedBytes-c1.RunMappedBytes, storeKeys)
	put := putter(at, keys)
	for range puts {
		put()
	}
	c3 := persist.CountersNow()
	l.ratio("persist.wal_bytes_per_put", c3.WALBytes-c2.WALBytes, puts)
	l.ratio("persist.wal_appends_per_put", c3.WALAppends-c2.WALAppends, puts)
	l.ratio("persist.fsyncs_per_put", c3.Fsyncs-c2.Fsyncs, puts)
	if err := at.Compact(); err != nil {
		t.Fatal(err)
	}
	c4 := persist.CountersNow()
	l.ratio("persist.checkpoint_bytes_per_put", c4.SnapshotBytes-c3.SnapshotBytes, puts)
	l.add("persist.checkpoint_fsyncs", float64(c4.Fsyncs-c3.Fsyncs))
	l.add("store.put_attached_allocs", allocs(put))
	if err := at.PersistErr(); err != nil {
		t.Fatal(err)
	}
}

// netRows counts what one client with one request in flight puts on
// the wire, per op and in both directions, through a proxy that parses
// the frame stream.
func netRows(t *testing.T, l *ledger, keys []core.Key, payloads []uint64) {
	st := newStore(t, keys, payloads, storeConfig())
	srv, err := net.Listen("127.0.0.1:0", st, net.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	probes := dataset.Lookups(keys, 256, seed)
	out := make([]uint64, len(probes))
	for _, op := range []struct {
		name string
		n    int
		do   func(c *net.Client, i int) error
	}{
		{"get", 100, func(c *net.Client, i int) error { _, _, err := c.Get(probes[i%len(probes)]); return err }},
		{"getbatch", 20, func(c *net.Client, i int) error { _, err := c.GetBatch(probes, out); return err }},
		{"put", 100, func(c *net.Client, i int) error { return c.Put(keys[i]+1, uint64(i)) }},
	} {
		p := newFrameProxy(t, srv.Addr().String())
		c, err := net.Dial(p.addr)
		if err != nil {
			t.Fatal(err)
		}
		for i := range op.n {
			if err := op.do(c, i); err != nil {
				t.Fatalf("net %s: %v", op.name, err)
			}
		}
		c.Close()
		frames, bytes := p.wait()
		l.ratio("net."+op.name+".frames_per_op", frames, uint64(op.n))
		l.ratio("net."+op.name+".bytes_per_op", bytes, uint64(op.n))
	}
}

// frameProxy relays one client connection to the server and counts the
// frames and bytes that cross it in either direction. Each frame is
// counted before it is forwarded, so a call that has returned has been
// counted in full.
type frameProxy struct {
	addr          string
	wg            sync.WaitGroup
	mu            sync.Mutex
	frames, bytes uint64
}

func newFrameProxy(t *testing.T, server string) *frameProxy {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &frameProxy{addr: ln.Addr().String()}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		down, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		up, err := stdnet.Dial("tcp", server)
		if err != nil {
			down.Close()
			return
		}
		p.wg.Add(2)
		go p.relay(up, down)
		go p.relay(down, up)
	}()
	return p
}

// relay forwards whole frames from src to dst until src ends, then
// closes both sides, which ends the opposite relay too.
func (p *frameProxy) relay(dst, src stdnet.Conn) {
	defer p.wg.Done()
	defer dst.Close()
	defer src.Close()
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		frame := make([]byte, 4+int(binary.LittleEndian.Uint32(hdr[:]))+8)
		copy(frame, hdr[:])
		if _, err := io.ReadFull(src, frame[4:]); err != nil {
			return
		}
		p.mu.Lock()
		p.frames++
		p.bytes += uint64(len(frame))
		p.mu.Unlock()
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}

// wait joins the relays (the client has closed) and returns the totals.
func (p *frameProxy) wait() (frames, bytes uint64) {
	p.wg.Wait()
	return p.frames, p.bytes
}

// codecRows prices the encoder every frame and file goes through, and
// the replication stream log's append once its ring is full — the state
// of every shard of a primary that has taken DefaultRingOps writes.
func codecRows(l *ledger) {
	var w binio.Writer
	l.add("binio.reused_writer_allocs", allocs(func() { w.Reset(); w.U64(1); w.U64(2) }))
	hook := repl.NewLog(1).Hook()
	for i := range repl.DefaultRingOps {
		hook(0, persist.Op{Key: core.Key(i)})
	}
	i := 0
	l.add("repl.log_append_full_allocs", allocs(func() { hook(0, persist.Op{Key: core.Key(i)}); i++ }))
}

// leafRead is the leaf a traced RMI lookup read last: the element of its
// read of the leaf array.
type leafRead int

func (l *leafRead) Read(a, i, _ int) {
	if a == 1 {
		*l = leafRead(i)
	}
}
func (*leafRead) Search(int, int, int, int, uint32) {}
func (*leafRead) Compare(uint32, bool)              {}
func (*leafRead) Work(int)                          {}
