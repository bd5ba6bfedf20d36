package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/table"
)

// idxLookup is the paper's experiment: read-only, one thread, table.Get
// on uniformly drawn present keys, every dataset against every family
// at the registry's mid-sweep configuration. Only the index and the
// last-mile search do any work.
type idxLookup struct {
	sets   []*keySet
	pools  []*readPool // uniform lookups, one stream per dataset
	cells  []idxCell
	buildS map[string]float64 // family → seconds to tune and build it on amzn
}

type idxCell struct {
	fam, ds string // lower-case, as in the metric names
	set     int
	tab     *table.Table
}

var idxFamilies = []string{"RMI", "PGM", "RS", "BTree"}

// idxBlock is the number of lookups timed together: one clock reading
// per 4096 lookups keeps the clock far below a percent of the span.
const idxBlock = 4096

func (w *idxLookup) generate(c *config) error {
	w.sets, w.pools = nil, nil
	ident := identity(c.n)
	for i, ds := range dataset.All() {
		ks, err := genKeySet(ds, c.n)
		if err != nil {
			return err
		}
		pool := uniformPool(ks, ident, c.scale(1<<19, 1<<14), c.seed+uint64(i))
		c.logf("idx-lookup: %s keys=%d checksum=%016x lookups=%d checksum=%016x", ds, c.n, ks.checksum, len(pool.keys), pool.checksum())
		w.sets, w.pools = append(w.sets, ks), append(w.pools, pool)
	}
	if c.corrupt {
		w.pools[0].sums[0]++
	}
	return nil
}

func (w *idxLookup) setUp(c *config, dir string, traced bool) error {
	w.cells, w.buildS = nil, map[string]float64{}
	for si, ks := range w.sets {
		for _, fam := range idxFamilies {
			t0 := time.Now()
			nb, ok := registry.Builder(fam, ks.keys)
			if !ok {
				return fmt.Errorf("family %s has no mid-sweep configuration", fam)
			}
			tab, err := table.Build(nb.Builder, ks.keys, ks.payloads, nil)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", fam, ks.name, err)
			}
			if ks.name == dataset.Amzn {
				w.buildS[fam] = time.Since(t0).Seconds()
			}
			w.cells = append(w.cells, idxCell{fam: strings.ToLower(fam), ds: string(ks.name), set: si, tab: tab})
		}
	}
	return nil
}

func (w *idxLookup) timing(m metrics) {
	for fam, s := range w.buildS {
		m.set("index."+strings.ToLower(fam)+".build_s", s, "s")
	}
}

func (w *idxLookup) tearDown() { w.cells = nil }

// Latencies are recorded per block, as picoseconds per lookup.
func (w *idxLookup) latencyUnitsPerUs() float64 { return 1e6 }

// measure gives every cell an equal share of the pass. A window of the
// result is that window summed over the 16 cells.
func (w *idxLookup) measure(c *config, p plan, rec *recorder, m metrics) (*pass, error) {
	share := time.Duration(len(w.cells))
	cellPlan := plan{warm: p.warm / share, window: p.window / share, windows: p.windows}
	var passes []*pass
	var nsPerLookup, bytesPerKey []float64
	for _, cell := range w.cells {
		pool, tab, blk := w.pools[cell.set], cell.tab, 0
		ps := drive(cellPlan, driver{workers: 1, rec: rec, name: "idx-lookup." + cell.fam + "." + cell.ds}, func(_ int, s *slot) {
			keys, want := pool.block(blk, idxBlock)
			t0 := time.Now()
			var sum uint64
			for _, k := range keys {
				v, _ := tab.Get(k)
				sum += v
			}
			t1 := time.Now()
			s.reads.Record(t1.Sub(t0).Nanoseconds() * 1000 / idxBlock)
			s.span(t0, t1, "table.Get", int64(blk), idxBlock)
			s.ops += idxBlock
			s.attempted += idxBlock
			if sum != want {
				c.complain("idx-lookup: %s on %s, block %d: payloads sum to %x, want %x", cell.fam, cell.ds, blk, sum, want)
				s.failed++ // at least one lookup of the block returned a wrong payload
			}
			blk++
		})
		passes = append(passes, ps)
		ns := median(ps.each(func(w *window) float64 { return float64(w.dur.Nanoseconds()) / float64(w.ops) }))
		size := float64(tab.SizeBytes()) / float64(tab.Len())
		m.set("index."+cell.fam+"."+cell.ds+".lookup_ns", ns, "ns")
		m.set("index."+cell.fam+"."+cell.ds+".bytes_per_key", size, "B")
		nsPerLookup, bytesPerKey = append(nsPerLookup, ns), append(bytesPerKey, size)
		if cell.ds == string(dataset.Amzn) {
			m.set("index."+cell.fam+".bound_width", meanBoundWidth(tab.Index(), pool.keys), "count")
		}
	}
	m.set("heap_mb", heapMB(), "MB")
	m.set("lookup_ns", geomean(nsPerLookup), "ns")
	m.set("index_bytes_per_key", geomean(bytesPerKey), "B")
	return mergePasses(passes), nil
}

// meanBoundWidth is the mean width of the search bound the index
// returns: the count the paper's analysis regresses lookup time on (as
// its logarithm).
func meanBoundWidth(idx core.Index, keys []core.Key) float64 {
	var sum int
	for _, k := range keys {
		sum += idx.Lookup(k).Width()
	}
	return float64(sum) / float64(len(keys))
}

// mergePasses adds up the passes window by window.
func mergePasses(passes []*pass) *pass {
	out := &pass{}
	for _, ps := range passes {
		out.otherAttempted += ps.otherAttempted
		out.otherFailed += ps.otherFailed
		for k, win := range ps.windows {
			if k == len(out.windows) {
				out.windows = append(out.windows, &window{})
			}
			o := out.windows[k]
			o.dur += win.dur
			o.ops += win.ops
			o.attempted += win.attempted
			o.failed += win.failed
			o.reads.Merge(&win.reads)
			o.writes.Merge(&win.writes)
		}
	}
	return out
}

// ladder runs the rungs below the store on the amzn RMI cell.
func (w *idxLookup) ladder(c *config, rec *recorder, m metrics) error {
	for _, cell := range w.cells {
		if cell.fam == "rmi" && cell.ds == string(dataset.Amzn) {
			l := &ladder{c: c, rec: rec, m: m}
			return l.reads(stackUnder{tabs: []*table.Table{cell.tab}}, w.pools[cell.set].keys)
		}
	}
	return fmt.Errorf("no amzn RMI cell")
}
