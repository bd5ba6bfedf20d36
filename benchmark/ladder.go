package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/net"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/table"
)

// A ladder prices the layers from outside: one key stream, one thread,
// driven through each layer boundary of the same stack, lowest first.
// The stream is cut into blocks and the rungs take turns, one block
// each, so that a slow second of the machine weighs on all of them
// alike. Every rung goes through every block once, but no two rungs
// through the same block in the same turn: the rung that came second
// would find the first one's cache lines. A rung records one span per
// block (a block has the same request id on every rung) and reports its
// median block. A layer's self time is its rung minus the rung of the
// boundary below it, so the self times of a ladder add up to its top
// rung.
type ladder struct {
	c   *config
	rec *recorder
	m   metrics
}

// rung is one boundary: run makes the calls of one block of keys through
// it and returns how many it made (lookups, keys of a batch, puts).
type rung struct {
	name string // the span's name
	run  func(block []core.Key) int
}

// shape is how many blocks a ladder times and how many keys make a
// block. A sub-microsecond call is timed hundreds at a time, so that the
// clock stays below 2 % of the span; a ladder with a rung that crosses
// the wire or waits for an fsync gets fewer and shorter blocks.
type shape struct{ blocks, size int }

func (l *ladder) local() shape  { return shape{l.c.scale(128, 4), l.c.scale(1024, 256)} }
func (l *ladder) remote() shape { return shape{l.c.scale(8, 2), l.c.scale(256, 64)} }

// climb drives the blocks of keys through the rungs and returns, per
// rung, the median nanoseconds per call over the blocks and the heap
// allocations per call. prep, when set, runs before each block, outside
// its span. The first block goes through once untimed: that pass warms
// the rungs up and is the one whose allocations are counted (reading the
// allocation counter stops the world, which a timed block must not
// follow).
func (l *ladder) climb(sh shape, keys []core.Key, prep func(block []core.Key), rungs []rung) (ns, allocs []float64) {
	blocks := min(sh.blocks, len(keys)/sh.size)
	groups := make([]span, len(rungs))
	perCall := make([][]float64, len(rungs))
	allocs = make([]float64, len(rungs))
	if prep != nil {
		prep(keys[:sh.size])
	}
	for r, rg := range rungs {
		groups[r] = l.rec.open("ladder."+rg.name, 0)
		m0 := mallocs()
		n := rg.run(keys[:sh.size])
		allocs[r] = float64(mallocs()-m0) / float64(n)
	}
	for turn := 0; turn < blocks; turn++ {
		for r, rg := range rungs {
			b := (turn + r*blocks/len(rungs)) % blocks
			block := keys[b*sh.size : (b+1)*sh.size]
			if prep != nil {
				prep(block)
			}
			t0 := time.Now()
			n := rg.run(block)
			t1 := time.Now()
			perCall[r] = append(perCall[r], float64(t1.Sub(t0).Nanoseconds())/float64(n))
			l.rec.add(span{ID: l.rec.id(), Parent: groups[r].ID, Name: rg.name, Req: int64(b),
				Start: l.rec.since(t0), End: l.rec.since(t1), Calls: n})
		}
	}
	ns = make([]float64, len(rungs))
	for r := range rungs {
		l.rec.done(groups[r])
		ns[r] = median(perCall[r])
	}
	return ns, allocs
}

var sink uint64 // keeps the compiler from dropping a rung's results

// reader is the read surface the wire client pool and the router share.
type reader interface {
	TryGet(key core.Key) (uint64, bool, error)
	TryGetBatch(keys []core.Key, out []uint64) (int, error)
}

// stackUnder names the boundaries of the stack a read ladder climbs,
// lowest first; the upper ones are nil where the workload has none.
type stackUnder struct {
	tabs   []*table.Table // the store's own shard tables, or the one table of idx-lookup
	seps   []core.Key     // the store's separators; nil for one table
	st     *serve.Store
	wire   *net.Pool // a client pool in front of st
	router *repl.Router
}

func storeUnder(st *serve.Store) stackUnder {
	u := stackUnder{st: st, seps: st.Separators(), tabs: make([]*table.Table, st.NumShards())}
	for i := range u.tabs {
		u.tabs[i] = st.Shard(i)
	}
	return u
}

// reads climbs the point ladder (index.Lookup, table.Get, Store.Get, a
// point Get over the wire with one in flight, the same through the
// router) and the batch ladder (table.GetBatch, Store.GetBatch of 256,
// an explicit batch of 256 over the wire, the same through the router)
// as far up as the stack goes.
func (l *ladder) reads(u stackUnder, keys []core.Key) error {
	// Routing a key to its shard table is the store's work; below the
	// store it is done before the block, outside the spans.
	shard := make([]int, l.local().size)
	perShard := make([][]core.Key, len(u.tabs))
	route := func(block []core.Key) {
		for i := range perShard {
			perShard[i] = perShard[i][:0]
		}
		for i, k := range block {
			s := max(sort.Search(len(u.seps), func(j int) bool { return u.seps[j] > k })-1, 0)
			shard[i] = s
			perShard[s] = append(perShard[s], k)
		}
	}
	var err error
	pointVia := func(name string, r reader) rung {
		return rung{name, func(block []core.Key) int {
			for _, k := range block {
				v, _, e := r.TryGet(k)
				if e != nil {
					err = e
				}
				sink += v
			}
			return len(block)
		}}
	}
	out := make([]uint64, l.local().size)
	batchVia := func(name string, r reader) rung {
		return rung{name, func(block []core.Key) int {
			for at := 0; at+readBatch <= len(block); at += readBatch {
				n, e := r.TryGetBatch(block[at:at+readBatch], out)
				if e != nil {
					err = e
				}
				sink += uint64(n)
			}
			return len(block)
		}}
	}

	point := []rung{
		{"index.Lookup", func(block []core.Key) int {
			for i, k := range block {
				sink += uint64(u.tabs[shard[i]].Index().Lookup(k).Lo)
			}
			return len(block)
		}},
		{"table.Get", func(block []core.Key) int {
			for i, k := range block {
				v, _ := u.tabs[shard[i]].Get(k)
				sink += v
			}
			return len(block)
		}},
	}
	batch := []rung{
		{"table.GetBatch", func(block []core.Key) int {
			for i, g := range perShard {
				if len(g) > 0 {
					sink += uint64(u.tabs[i].GetBatch(g, out))
				}
			}
			return len(block)
		}},
	}
	if u.st != nil {
		point = append(point, rung{"serve.Get", func(block []core.Key) int {
			for _, k := range block {
				v, _ := u.st.Get(k)
				sink += v
			}
			return len(block)
		}})
		batch = append(batch, rung{"serve.GetBatch", func(block []core.Key) int {
			for at := 0; at+readBatch <= len(block); at += readBatch {
				sink += uint64(u.st.GetBatch(block[at:at+readBatch], out))
			}
			return len(block)
		}})
	}
	// The rungs of the point ladder that cross the wire cost a thousand
	// times the ones below them, and are climbed over a shorter stream.
	var far []rung
	if u.wire != nil {
		far, batch = append(far, pointVia("net.TryGet", u.wire)), append(batch, batchVia("net.TryGetBatch", u.wire))
	}
	if u.router != nil {
		far, batch = append(far, pointVia("repl.TryGet", u.router)), append(batch, batchVia("repl.TryGetBatch", u.router))
	}

	pNs, pAllocs := l.climb(l.local(), keys, route, point)
	bNs, bAllocs := l.climb(l.local(), keys, route, batch)
	if len(far) > 0 {
		ns, allocs := l.climb(l.remote(), keys, nil, far)
		pNs, pAllocs = append(pNs, ns...), append(pAllocs, allocs...)
	}
	if err != nil {
		return fmt.Errorf("read ladder: %w", err)
	}
	m := l.m
	m.set("index.lookup_ns", pNs[0], "ns")
	m.set("table.get_ns", pNs[1], "ns")
	m.set("search.self_ns", pNs[1]-pNs[0], "ns")
	m.set("table.getbatch_ns_key", bNs[0], "ns")
	m.set("table.get_allocs", pAllocs[1], "allocs/op")
	if u.st != nil {
		m.set("serve.get_ns", pNs[2], "ns")
		m.set("serve.self_get_ns", pNs[2]-pNs[1], "ns")
		m.set("serve.getbatch_ns_key", bNs[1], "ns")
		m.set("serve.self_getbatch_ns_key", bNs[1]-bNs[0], "ns")
		m.set("serve.get_allocs", pAllocs[2], "allocs/op")
		m.set("serve.getbatch_allocs", bAllocs[1]*readBatch, "allocs/op")
	}
	if u.wire != nil {
		m.set("net.point_rtt_us", pNs[3]/1e3, "us")
		m.set("net.self_point_us", (pNs[3]-pNs[2])/1e3, "us")
		m.set("net.batch_ns_key", bNs[2], "ns")
		m.set("net.self_batch_ns_key", bNs[2]-bNs[1], "ns")
		m.set("net.point_allocs", pAllocs[3], "allocs/op")
		m.set("net.batch_allocs", bAllocs[2]*readBatch, "allocs/op")
	}
	if u.router != nil {
		m.set("repl.router_point_us", pNs[4]/1e3, "us")
		m.set("repl.self_point_us", (pNs[4]-pNs[3])/1e3, "us")
		m.set("repl.router_batch_ns_key", bNs[3], "ns")
		m.set("repl.self_batch_ns_key", bNs[3]-bNs[2], "ns")
		m.set("repl.router_point_allocs", pAllocs[4], "allocs/op")
		m.set("repl.router_batch_allocs", bAllocs[3]*readBatch, "allocs/op")
	}
	return nil
}

// putVia is the rung that writes each key of a block through put, with
// the payloads a workload would write.
func putVia(name string, put func(key core.Key, payload uint64) error, err *error) rung {
	var c int64
	return rung{name, func(block []core.Key) int {
		for _, k := range block {
			if e := put(k, writeTag(k, 0, c)); e != nil {
				*err = e
			}
			c++
		}
		return len(block)
	}}
}

// wirePut prices a Put through the client pool. It runs after the read
// ladders, since it leaves writes behind in the store.
func (l *ladder) wirePut(pool *net.Pool, keys []core.Key) error {
	var err error
	ns, allocs := l.climb(l.remote(), keys, nil, []rung{putVia("net.TryPut", pool.TryPut, &err)})
	if err != nil {
		return fmt.Errorf("wire put rung: %w", err)
	}
	l.m.set("net.put_rtt_us", ns[0]/1e3, "us")
	l.m.set("net.put_allocs", allocs[0], "allocs/op")
	return nil
}
