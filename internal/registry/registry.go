// Package registry is the single catalog of index-structure families:
// every family self-describes as a name plus a ladder constructor that
// yields its configuration ladder (small index to large) for a given
// key set. The benchmark harness, the sosd CLI, and the serving layer
// all consume this one catalog, so adding a family here makes it
// available everywhere at once.
//
// A ladder is lazy: enumerating its rungs is free, and a rung's
// configuration is tuned to the keys only when that rung is resolved.
// Sweep resolves every rung (the figures), Builder the middle one,
// SweepEntry the one a label names — one ladder definition per family,
// and nobody pays for tuning a rung they don't build.
//
// The serving layer picks indexes through two rules over those ladders
// and one set, learned (the families tuned per key set): Rebuild maps a
// run's codec tag and its keys to the builder of a shard's base run,
// Tier maps a shard's family to the cheap index of a small LSM run.
package registry

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/core"
)

// NamedBuilder pairs a builder with its configuration label.
type NamedBuilder struct {
	Label   string
	Builder core.Builder
}

// rung is one step of a family's configuration ladder, not yet tuned.
type rung struct {
	// knob is the rung's position on the ladder — branching factor, ε,
	// stride — spelled as it appears in the rung's label ("B=4096]",
	// "eps=64", "stride=8"). It is known without tuning, and the label
	// resolve produces contains it; SweepEntry uses that to skip rungs
	// a label cannot name. A knob that also occurs in a sibling's label
	// costs that lookup one wasted resolve, never a wrong answer.
	knob string
	// resolve returns the rung's labelled builder. For a family tuned
	// per key set this is where the tuning happens.
	resolve func() NamedBuilder
}

// fixed is the rung of a configuration that needs no tuning: its label
// is its knob and resolving it is free.
func fixed(label string, b core.Builder) rung {
	nb := NamedBuilder{label, b}
	return rung{knob: label, resolve: func() NamedBuilder { return nb }}
}

// ladderFunc returns a family's configuration ladder for a key set,
// ordered small index to large. Learned structures tune per dataset,
// mirroring the paper's author-tuned configurations, which is why the
// ladder is a function of the keys rather than a static list. It must
// be cheap: per-key-set work belongs in rung.resolve.
type ladderFunc func(keys []core.Key) []rung

var families = map[string]ladderFunc{}

// register adds a family to the catalog. It panics on duplicate names:
// two packages claiming one family is a programming error, and the
// catalog is assembled at init time where failing loudly is the only
// useful behaviour.
func register(family string, fn ladderFunc) {
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
func Families() []string { return slices.Sorted(maps.Keys(families)) }

// ladder returns a registered family's rungs, or nil for an unknown
// family.
func ladder(family string, keys []core.Key) []rung {
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
		out[i] = r.resolve()
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
	return rungs[len(rungs)/2].resolve(), true
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
		if !strings.Contains(label, r.knob) {
			continue
		}
		if nb := r.resolve(); nb.Label == label {
			return nb, true
		}
	}
	return NamedBuilder{}, false
}

// learned is the set of families whose configuration is tuned per key
// set: their model sizing is a function of the data, so a rebuild over
// new keys re-picks the rung instead of keeping the old one, and their
// small tier runs are worth a coarse learned bound (see Tier). Tree and
// hash families bulk-load with the configuration they have.
var learned = map[string]bool{"RMI": true, "PGM": true, "RS": true}

// Rebuild is the one rule for choosing the builder of a serving shard's
// base run: tag is the codec tag of the run being replaced (or the bare
// family of a shard not built yet), keys the key set about to be
// indexed. A learned family re-picks its mid-ladder rung for the keys —
// RMI re-runs its tuner — whatever rung the tag names; every other
// family keeps the rung the tag names and falls back to mid-ladder when
// the tag names none (a bare family is "no rung yet") or one its ladder
// no longer has. id is the labelled ID of the entry returned and a fixed
// point of Rebuild over the same keys: the tag to record for the new
// run. ok is false for a family the catalog does not know.
func Rebuild(tag string, keys []core.Key) (nb NamedBuilder, id string, ok bool) {
	family, label := ParseID(tag)
	if !learned[family] {
		if nb, ok = SweepEntry(family, label, keys); ok {
			return nb, tag, true
		}
	}
	if nb, ok = Builder(family, keys); !ok {
		return NamedBuilder{}, "", false
	}
	return nb, ID(family, nb.Label), true
}

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

// WriteFamilies is the family set of the write-path experiment
// (serve-lsm): the learned structures (whose compactions re-tune and
// rebuild whole models) against the B-tree baseline (whose rebuild is
// a cheap bulk load).
var WriteFamilies = []string{"RMI", "PGM", "RS", "BTree"}
