// Package registry is the single catalog of index-structure families:
// every family self-describes as a name plus a ladder constructor that
// yields its configuration ladder (small index to large) for a given
// key set. The benchmark harness, the sosd CLI, and the serving layer
// all consume this one catalog, so adding a family here makes it
// available everywhere at once.
//
// A ladder is lazy: enumerating its rungs is free, and a rung's
// configuration is tuned to the keys only when that rung is resolved.
// Sweep resolves every rung (the figures), Builder the middle one (a
// serving shard, a compaction rebuild), SweepEntry the one a label
// names (a warm-opened shard) — one ladder definition per family, and
// nobody pays for tuning a rung they don't build.
package registry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// NamedBuilder pairs a builder with its configuration label.
type NamedBuilder struct {
	Label   string
	Builder core.Builder
}

// Rung is one step of a family's configuration ladder, not yet tuned.
type Rung struct {
	// Knob is the rung's position on the ladder — branching factor, ε,
	// stride — spelled as it appears in the rung's label ("B=4096]",
	// "eps=64", "stride=8"). It is known without tuning, and the label
	// Resolve produces contains it; SweepEntry uses that to skip rungs
	// a label cannot name. A knob that also occurs in a sibling's label
	// costs that lookup one wasted Resolve, never a wrong answer.
	Knob string
	// Resolve returns the rung's labelled builder. For a family tuned
	// per key set this is where the tuning happens.
	Resolve func() NamedBuilder
}

// fixed is the rung of a configuration that needs no tuning: its label
// is its knob and resolving it is free.
func fixed(label string, b core.Builder) Rung {
	nb := NamedBuilder{label, b}
	return Rung{Knob: label, Resolve: func() NamedBuilder { return nb }}
}

// LadderFunc returns a family's configuration ladder for a key set,
// ordered small index to large. Learned structures tune per dataset,
// mirroring the paper's author-tuned configurations, which is why the
// ladder is a function of the keys rather than a static list. It must
// be cheap: per-key-set work belongs in Rung.Resolve.
type LadderFunc func(keys []core.Key) []Rung

var families = map[string]LadderFunc{}

// Register adds a family to the catalog. It panics on duplicate names:
// two packages claiming one family is a programming error, and the
// catalog is assembled at init time where failing loudly is the only
// useful behaviour.
func Register(family string, fn LadderFunc) {
	if fn == nil {
		panic(fmt.Sprintf("registry: nil ladder for family %q", family))
	}
	if _, dup := families[family]; dup {
		panic(fmt.Sprintf("registry: duplicate family %q", family))
	}
	families[family] = fn
}

// Has reports whether a family is registered.
func Has(family string) bool {
	_, ok := families[family]
	return ok
}

// Families returns every registered family name, sorted.
func Families() []string {
	out := make([]string, 0, len(families))
	for name := range families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ladder returns a registered family's rungs, or nil for an unknown
// family.
func ladder(family string, keys []core.Key) []Rung {
	fn, ok := families[family]
	if !ok {
		return nil
	}
	return fn(keys)
}

// Sweep returns the configuration sweep for a registered family — every
// rung of its ladder resolved, small index to large — or nil for an
// unknown family.
func Sweep(family string, keys []core.Key) []NamedBuilder {
	rungs := ladder(family, keys)
	if rungs == nil {
		return nil
	}
	out := make([]NamedBuilder, len(rungs))
	for i, r := range rungs {
		out[i] = r.Resolve()
	}
	return out
}

// Builder returns the single mid-ladder builder of a family: the
// canonical "one reasonable configuration" used when a caller (e.g. a
// serving shard) wants a family without sweeping. Only that rung is
// resolved. ok is false for an unknown family or an empty ladder.
func Builder(family string, keys []core.Key) (NamedBuilder, bool) {
	rungs := ladder(family, keys)
	if len(rungs) == 0 {
		return NamedBuilder{}, false
	}
	return rungs[len(rungs)/2].Resolve(), true
}

// ID returns the deterministic cross-process identifier of a family
// configuration: "family" for an unlabelled configuration, otherwise
// "family/label". Sweep labels are pure functions of the configuration
// (never of pointers, timestamps, or iteration order), so the same
// config produces the same ID in every process — which is what lets a
// snapshot manifest name the exact catalog entry that built a shard.
// Family names must not contain '/'; labels may.
func ID(family, label string) string {
	if label == "" {
		return family
	}
	return family + "/" + label
}

// ParseID splits an ID back into family and label (label empty for
// unlabelled IDs).
func ParseID(id string) (family, label string) {
	if i := strings.IndexByte(id, '/'); i >= 0 {
		return id[:i], id[i+1:]
	}
	return id, ""
}

// SweepEntry looks up one catalog entry by its stable name: the entry
// of family's sweep over keys whose label matches. Only rungs whose
// knob appears in the label are resolved, so naming a tuned rung costs
// that rung's tuning and no other's. ok is false when the family is
// unknown or no entry of the sweep carries the label (e.g. a learned
// family whose tuned ladder changed because the key set did).
func SweepEntry(family, label string, keys []core.Key) (NamedBuilder, bool) {
	for _, r := range ladder(family, keys) {
		if !strings.Contains(label, r.Knob) {
			continue
		}
		if nb := r.Resolve(); nb.Label == label {
			return nb, true
		}
	}
	return NamedBuilder{}, false
}

// RebuildFunc produces the builder used when a serving shard is
// compacted and its index rebuilt: prev is the builder that built the
// shard's current index, keys the merged key set about to be indexed.
// Families whose configuration is tuned per key set (the learned
// structures) register one so compaction re-tunes; families without a
// hook reuse prev, the cheap bulk-load path.
type RebuildFunc func(prev core.Builder, keys []core.Key) core.Builder

var rebuilds = map[string]RebuildFunc{}

// RegisterRebuild adds a family's compaction rebuild hook. Like
// Register, it panics on nil hooks and duplicate registrations.
func RegisterRebuild(family string, fn RebuildFunc) {
	if fn == nil {
		panic(fmt.Sprintf("registry: nil rebuild hook for family %q", family))
	}
	if _, dup := rebuilds[family]; dup {
		panic(fmt.Sprintf("registry: duplicate rebuild hook for family %q", family))
	}
	rebuilds[family] = fn
}

// HasRebuild reports whether a family registered a compaction rebuild
// hook (i.e. whether RebuildBuilder can return a builder other than
// prev).
func HasRebuild(family string) bool {
	_, ok := rebuilds[family]
	return ok
}

// RebuildBuilder returns the builder for re-indexing keys after a
// compaction merge: the family's rebuild hook when registered,
// otherwise prev unchanged. family values not in the catalog (custom
// builders) always reuse prev.
func RebuildBuilder(family string, prev core.Builder, keys []core.Key) core.Builder {
	if fn, ok := rebuilds[family]; ok {
		return fn(prev, keys)
	}
	return prev
}

// TierFunc produces the builder for a small LSM tier run of a family:
// keys is the run about to be indexed — typically one flushed delta or
// a minor merge of a few deltas, so orders of magnitude smaller than
// the shard base. The hook lets a family serve small runs with a cheap
// low-tier index (plain binary search, a coarse PGM) instead of paying
// its full per-base tuning cost on every flush. The returned id is the
// catalog ID of the entry that built the index — the family the
// builder actually belongs to, not necessarily the shard's family — so
// a persisted run can name the exact entry that rebuilds it.
type TierFunc func(keys []core.Key) (nb NamedBuilder, id string)

var tiers = map[string]TierFunc{}

// RegisterTier adds a family's tier-run builder hook. Like Register,
// it panics on nil hooks and duplicate registrations.
func RegisterTier(family string, fn TierFunc) {
	if fn == nil {
		panic(fmt.Sprintf("registry: nil tier hook for family %q", family))
	}
	if _, dup := tiers[family]; dup {
		panic(fmt.Sprintf("registry: duplicate tier hook for family %q", family))
	}
	tiers[family] = fn
}

// TierBuilder returns the builder for indexing a small tier run of
// keys, plus its catalog ID for persistence: the family's tier hook
// when registered, otherwise the zero-cost binary-search fallback
// (families without a hook — and custom builders outside the catalog —
// never pay index construction on a flush).
func TierBuilder(family string, keys []core.Key) (NamedBuilder, string) {
	if fn, ok := tiers[family]; ok {
		return fn(keys)
	}
	return binarySearchTier(), "BS"
}

// binarySearchTier is the universal tier fallback: a no-build index
// whose every bound is the full array, resolved by the last-mile
// search. Registered by the families package as the "BS" catalog entry;
// kept behind a function hook here so registry carries no structure
// dependencies.
var binarySearchTier = func() NamedBuilder {
	panic("registry: tier fallback not wired (families package not linked)")
}

// SetTierFallback wires the binary-search tier fallback; called once at
// init by the families catalog.
func SetTierFallback(fn func() NamedBuilder) { binarySearchTier = fn }

// ParetoFamilies is the structure set of Figure 7.
var ParetoFamilies = []string{"RMI", "PGM", "RS", "RBS", "ART", "BTree", "IBTree", "FAST"}

// StringFamilies is the structure set of Figure 8.
var StringFamilies = []string{"FST", "Wormhole", "RMI", "BTree"}

// Table2Families is the structure set of Table 2.
var Table2Families = []string{"PGM", "RS", "RMI", "BTree", "IBTree", "FAST", "BS", "CuckooMap", "RobinHash"}

// Fig12Families is the structure set of Figure 12.
var Fig12Families = []string{"RMI", "PGM", "RS", "BTree", "ART"}

// Fig16Families is the structure set of Figure 16.
var Fig16Families = []string{"RMI", "PGM", "RS", "RBS", "ART", "BTree", "IBTree", "FAST", "RobinHash"}

// ServeFamilies is the default family set of the sharded serving
// experiments: the three learned structures with a batched bound path
// plus the classic tree baseline.
var ServeFamilies = []string{"RMI", "PGM", "RS", "BTree"}

// WriteFamilies is the family set of the mixed read/write serving
// experiments: the learned structures (whose compactions re-tune and
// rebuild whole models) against the B-tree baseline (whose rebuild is
// a cheap bulk load).
var WriteFamilies = []string{"RMI", "PGM", "RS", "BTree"}
