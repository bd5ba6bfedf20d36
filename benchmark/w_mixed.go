package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/serve"
)

// storeMixed is the attached store (snapshot, reopened, so that every
// write reaches the WAL before it is visible; SyncWrites off, default
// CompactThreshold, MaxRuns and AmpBound) under YCSB-A: half point Gets
// of zipfian keys, half Puts alternating fresh inserts and zipfian
// updates, each op timed. The memtable's copy-on-write, WAL appends,
// flushes, minor and major merges and checkpoints all run many cycles,
// and reads see a delta and about two runs.
type storeMixed struct {
	onStack
	ks      *keySet
	streams []*mixedStream
	dir     string
}

// mixedOpsPerWorkerSecond sizes the op streams: enough that a worker
// does not wrap around within a run on this class of machine (it may:
// the inserts of a second lap are updates).
const mixedOpsPerWorkerSecond = 125_000

func (w *storeMixed) generate(c *config) error {
	ks, err := genKeySet(dataset.Amzn, c.n)
	if err != nil {
		return err
	}
	w.ks = ks
	perWorker := c.scale(int(mixedOpsPerWorkerSecond*c.seconds), 20_000)
	w.streams = mixedStreams(ks, loadWorkers, perWorker, 0.5, c.seed)
	c.logf("store-mixed: %s keys=%d (%d MB of keys and payloads) checksum=%016x ops=%dx%d checksums=%016x,%016x",
		ks.name, c.n, c.n*16>>20, ks.checksum, loadWorkers, perWorker, w.streams[0].checksum(), w.streams[1].checksum())
	if c.corrupt {
		for i, put := range w.streams[0].isPut {
			if !put {
				w.streams[0].orig[i]++
				break
			}
		}
	}
	return nil
}

func (w *storeMixed) setUp(c *config, dir string, traced bool) (err error) {
	w.dir = dir
	w.s, err = buildAttached(w.ks, filepath.Join(dir, "store"), traced)
	if err == nil {
		threshold, maxRuns, ampBound := w.s.st.Policy()
		c.logf("store-mixed: attached, SyncWrites off, CompactThreshold=%d MaxRuns=%d AmpBound=%.1f", threshold, maxRuns, ampBound)
	}
	return err
}

func (w *storeMixed) timing(m metrics) {
	w.onStack.timing(m)
	m.set("persist.snapshot_s", w.s.timing["snapshot"], "s")
	m.set("persist.open_s", w.s.timing["open"], "s")
}

// spanEveryMixed thins the spans of the traced pass: an op takes a
// microsecond or two, so a span per op would cost more than the op.
const spanEveryMixed = 16

func (w *storeMixed) measure(c *config, p plan, rec *recorder, m metrics) (*pass, error) {
	st := w.s.st
	m.set("index_bytes_per_key", float64(st.SizeBytes())/float64(c.n), "B")
	lanes := make([]lane, loadWorkers)
	watch := &storeWatch{n: &w.s.node}
	ps := drive(p, driver{workers: loadWorkers, rec: rec, name: "store-mixed", spanEvery: spanEveryMixed,
		onEdge: func(k int) { watch.edge(k, p.windows+1) }},
		func(wk int, s *slot) {
			ln, ms := &lanes[wk], w.streams[wk]
			i := ln.next % len(ms.keys)
			ln.next++
			key := ms.keys[i]
			s.attempted++
			if ms.isPut[i] {
				t0 := time.Now()
				st.Put(key, writeTag(key, wk, ln.puts))
				s.write(t0, "serve.Put", int64(i))
				ln.puts++
			} else {
				t0 := time.Now()
				v, ok := st.Get(key)
				s.read(t0, "serve.Get", int64(i), 1)
				if !ok || !validRead(key, v, ms.orig[i]) {
					c.complain("store-mixed: key %d read %x (present %v), loaded with %x", key, v, ok, ms.orig[i])
					s.failed++
					return
				}
			}
			s.ops++
		})
	m.set("heap_mb", heapMB(), "MB")
	watch.report(m, ps.writes())
	tracerPhases(m, &w.s.node)

	// Every acknowledged write must be in the store once compaction has
	// settled, and in a store opened from what a crash now would leave:
	// the directory as it is after a WAL sync, with no checkpoint.
	st.WaitCompactions()
	if err := st.SyncWAL(); err != nil {
		return nil, fmt.Errorf("sync WAL: %w", err)
	}
	if err := st.PersistErr(); err != nil {
		return nil, fmt.Errorf("store reports a persistence failure: %w", err)
	}
	crashDir := w.s.dir + "-crash"
	if err := copyDir(w.s.dir, crashDir); err != nil {
		return nil, err
	}
	done := []int64{int64(lanes[0].next), int64(lanes[1].next)}
	last := lastWrites(w.streams, done)
	ps.otherAttempted += int64(2 * len(last))
	ps.otherFailed += missingWrites(c, "store", last, st.Get)
	reopened, err := serve.Open(crashDir, serve.Config{Workers: storeWorkers})
	if err != nil {
		return nil, fmt.Errorf("reopen after abandon: %w", err)
	}
	ps.otherFailed += missingWrites(c, "reopened store", last, reopened.Get)
	reopened.Close()
	return ps, nil
}

// missingWrites counts the written keys whose value is not the last
// write of either worker.
func missingWrites(c *config, where string, last map[core.Key][2]uint64, get func(core.Key) (uint64, bool)) (missing int64) {
	for k, lw := range last {
		v, ok := get(k)
		if !ok || v == 0 || (v != lw[0] && v != lw[1]) {
			c.complain("%s: key %d holds %x (present %v), last written %x and %x", where, k, v, ok, lw[0], lw[1])
			missing++
		}
	}
	return missing
}

// ladder prices a Put from outside, lowest boundary first: the WAL
// append alone, a Put on a detached store (memtable only), on an
// attached store (memtable and WAL), and with the replication log as
// write hook — four stores in the same state taking the same keys block
// by block — then with SyncWrites on. It then fills the detached store
// to a half-full delta over about three tier runs per shard and prices a
// point read of that state.
func (w *storeMixed) ladder(c *config, rec *recorder, m metrics) error {
	l := &ladder{c: c, rec: rec, m: m}
	dir := filepath.Join(w.dir, "ladder")
	keys := dataset.InsertKeys(w.ks.keys, c.scale(16, 2)*1024, c.seed+1)

	// The detached store, with tier merges held off so that the dirty
	// rung reads the state the puts leave. Its snapshot, taken before any
	// write, is what the attached stores open copies of.
	cfg, reg, _ := storeConfig(false)
	cfg.MaxRuns, cfg.AmpBound = 8, 1e9
	detached, err := serve.New(w.ks.keys, w.ks.payloads, cfg)
	if err != nil {
		return err
	}
	defer detached.Close()
	pristine := filepath.Join(dir, "pristine")
	if err := detached.Snapshot(pristine); err != nil {
		return err
	}
	attached := func(name string, mod func(*serve.Config)) (*serve.Store, error) {
		s := newStack()
		copied := filepath.Join(dir, name)
		if err := copyDir(pristine, copied); err != nil {
			return nil, err
		}
		if err := s.openAttached(copied, false, mod); err != nil {
			return nil, err
		}
		return s.st, nil
	}
	wal, err := persist.CreateWAL(filepath.Join(dir, "alone.wal"), nil)
	if err != nil {
		return err
	}
	defer wal.Close()
	plain, err := attached("attached", nil)
	if err != nil {
		return err
	}
	defer plain.Close()
	hooked, err := attached("hooked", func(cfg *serve.Config) { cfg.WriteHook = repl.NewLog(storeShards).Hook() })
	if err != nil {
		return err
	}
	defer hooked.Close()
	synced, err := attached("synced", func(cfg *serve.Config) { cfg.SyncWrites = true })
	if err != nil {
		return err
	}
	defer synced.Close()

	var putErr error
	storePut := func(st *serve.Store) func(core.Key, uint64) error {
		return func(k core.Key, v uint64) error {
			st.Put(k, v)
			return nil
		}
	}
	ns, allocs := l.climb(shape{len(keys) / 1024, 1024}, keys, nil, []rung{
		putVia("persist.WAL.Append", func(k core.Key, v uint64) error { return wal.Append(persist.Op{Key: k, Val: v}) }, &putErr),
		putVia("serve.Put.detached", storePut(detached), &putErr),
		putVia("serve.Put.attached", storePut(plain), &putErr),
		putVia("serve.Put.hooked", storePut(hooked), &putErr),
	})
	syncNs, _ := l.climb(l.remote(), keys, nil, []rung{putVia("serve.Put.synced", storePut(synced), &putErr)})
	for _, st := range []*serve.Store{plain, hooked, synced} {
		if err := st.PersistErr(); err != nil {
			putErr = err
		}
	}
	if putErr != nil {
		return fmt.Errorf("write ladder: %w", putErr)
	}
	m.set("persist.wal_append_ns", ns[0], "ns")
	m.set("serve.put_mem_ns", ns[1], "ns")
	m.set("serve.put_wal_ns", ns[2], "ns")
	m.set("persist.self_put_ns", ns[2]-ns[1], "ns")
	m.set("repl.put_hook_ns", ns[3]-ns[2], "ns")
	m.set("persist.put_sync_us", syncNs[0]/1e3, "us")
	m.set("serve.put_allocs", allocs[1], "allocs/op")

	// Fill to about 3.5 deltas per shard, let the flushes finish, and
	// read the zipfian stream from delta, tier runs and base.
	threshold, _, _ := detached.Policy()
	fill := dataset.InsertKeys(w.ks.keys, c.scale(threshold*storeShards*7/2, 4096), c.seed+2)
	for i, k := range fill {
		detached.Put(k, writeTag(k, 0, int64(i)))
	}
	detached.WaitCompactions()
	sh := l.local()
	reads := zipfPool(w.ks, identity(c.n), sh.blocks*sh.size, c.seed, false).keys
	amp := func() (probes, multi float64) {
		probes, _ = reg.Value("sosd_store_run_probes_total")
		multi, _ = reg.Value("sosd_store_multirun_ops_total")
		return probes, multi
	}
	probes0, multi0 := amp()
	dirtyNs, _ := l.climb(sh, reads, nil, []rung{{"serve.Get.dirty", func(block []core.Key) int {
		for _, k := range block {
			v, _ := detached.Get(k)
			sink += v
		}
		return len(block)
	}}})
	probes1, multi1 := amp()
	m.set("serve.get_dirty_ns", dirtyNs[0], "ns")
	readAmp := 1.0
	if multi1 > multi0 {
		readAmp = (probes1 - probes0) / (multi1 - multi0)
	}
	m.set("serve.dirty_read_amp", readAmp, "ratio")
	c.logf("store-mixed: the dirty rung read %d runs at most and a delta of %d entries", detached.MaxRunCount(), detached.DeltaLen())
	return nil
}
