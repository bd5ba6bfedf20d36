// Package perfsim simulates the performance counters the paper reads
// from hardware (Section 4.3): last-level cache misses via a
// set-associative LRU cache model, branch mispredictions via a 2-bit
// saturating predictor, and instruction counts via a per-operation
// cost model. Traced index wrappers replay each structure's lookup
// path against a Machine, reproducing the paper's counter profiles
// (B-Trees: one miss per level; two-stage RMIs: at most two inference
// misses plus last-mile misses; PGM: one miss per level; hash tables:
// one or two probe misses) without PMU access, which Go's standard
// library does not provide. See DESIGN.md substitution 3.
package perfsim

import "fmt"

// Config sizes the simulated memory hierarchy. The defaults model a
// modest last-level cache so that laptop-scale datasets exhibit the
// same cached-index/uncached-data split as the paper's 200M-key runs.
type Config struct {
	cacheBytes int // total capacity; default 4 MiB
	lineBytes  int // cache line size; default 64
	ways       int // associativity; default 16
}

func (c Config) withDefaults() Config {
	if c.cacheBytes == 0 {
		c.cacheBytes = 4 << 20
	}
	if c.lineBytes == 0 {
		c.lineBytes = 64
	}
	if c.ways == 0 {
		c.ways = 16
	}
	return c
}

// Counters accumulates simulated performance events.
type Counters struct {
	accesses     uint64
	CacheMisses  uint64
	branches     uint64
	BranchMisses uint64
	Instructions uint64
}

// String implements fmt.Stringer.
func (c Counters) String() string {
	return fmt.Sprintf("acc=%d miss=%d br=%d brmiss=%d instr=%d",
		c.accesses, c.CacheMisses, c.branches, c.BranchMisses, c.Instructions)
}

// Region is a handle to a simulated memory allocation: its base address.
type Region struct {
	base uint64
}

// Machine is a simulated memory hierarchy plus branch predictor.
type Machine struct {
	nSets   int
	lineSz  uint64
	tags    [][]uint64 // per set, per way: line tag (0 = empty)
	ticks   [][]uint64 // per set, per way: last-touch tick for LRU
	tick    uint64
	nextMem uint64
	branch  []uint8 // 2-bit saturating counters
	ctr     Counters
}

// New builds a machine with the given configuration.
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	nSets := cfg.cacheBytes / cfg.lineBytes / cfg.ways
	if nSets < 1 {
		nSets = 1
	}
	m := &Machine{
		nSets:   nSets,
		lineSz:  uint64(cfg.lineBytes),
		tags:    make([][]uint64, nSets),
		ticks:   make([][]uint64, nSets),
		nextMem: uint64(cfg.lineBytes), // keep tag 0 meaning "empty"
		branch:  make([]uint8, 4096),
	}
	for s := range m.tags {
		m.tags[s] = make([]uint64, cfg.ways)
		m.ticks[s] = make([]uint64, cfg.ways)
	}
	return m
}

// Alloc reserves a region of the simulated address space, aligned to a
// cache line.
func (m *Machine) Alloc(size int) Region {
	if size < 1 {
		size = 1
	}
	r := Region{base: m.nextMem}
	aligned := (uint64(size) + m.lineSz - 1) / m.lineSz * m.lineSz
	m.nextMem += aligned + m.lineSz // one-line gap between regions
	return r
}

// Access touches [offset, offset+size) of the region, counting one
// instruction (a load) and probing the cache for every spanned line.
func (m *Machine) Access(r Region, offset, size int) {
	if size < 1 {
		size = 1
	}
	m.ctr.Instructions++
	first := (r.base + uint64(offset)) / m.lineSz
	last := (r.base + uint64(offset) + uint64(size) - 1) / m.lineSz
	for line := first; line <= last; line++ {
		m.touchLine(line)
	}
}

func (m *Machine) touchLine(line uint64) {
	m.ctr.accesses++
	m.tick++
	set := int(line % uint64(m.nSets))
	tags := m.tags[set]
	for w, t := range tags {
		if t == line {
			m.ticks[set][w] = m.tick
			return
		}
	}
	// Miss: evict the LRU way.
	m.ctr.CacheMisses++
	lru, lruTick := 0, m.ticks[set][0]
	for w := 1; w < len(tags); w++ {
		if m.ticks[set][w] < lruTick {
			lru, lruTick = w, m.ticks[set][w]
		}
	}
	tags[lru] = line
	m.ticks[set][lru] = m.tick
}

// recordBranch records a conditional branch at the given site with the given
// outcome, consulting a 2-bit saturating predictor.
func (m *Machine) recordBranch(site uint32, taken bool) {
	m.ctr.branches++
	m.ctr.Instructions++
	idx := site & uint32(len(m.branch)-1)
	state := m.branch[idx]
	predictTaken := state >= 2
	if predictTaken != taken {
		m.ctr.BranchMisses++
	}
	if taken && state < 3 {
		m.branch[idx] = state + 1
	} else if !taken && state > 0 {
		m.branch[idx] = state - 1
	}
}

// instr counts n ALU instructions.
func (m *Machine) instr(n int) { m.ctr.Instructions += uint64(n) }

// Counters returns the accumulated counters.
func (m *Machine) Counters() Counters { return m.ctr }

// ResetCounters zeroes the counters, keeping cache and predictor state
// (so a warm-up pass can precede measurement).
func (m *Machine) ResetCounters() { m.ctr = Counters{} }
