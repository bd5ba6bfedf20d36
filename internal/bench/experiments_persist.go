package bench

// The cold-start experiment: the paper's Figure-9/17 story — build and
// tune cost as a first-class axis, with an auto-tuned RMI orders of
// magnitude more expensive to produce than to use — retold at the
// serving layer and priced in work. Cold start builds (and for learned
// families, tunes) every shard index from scratch; warm start loads a
// snapshot, decoding trained parameters instead of retraining, exactly
// as SOSD caches built indexes on disk to make its sweeps tractable.
// The gap is the restart work the persistence subsystem saves a
// server, counted in key visits (registry.BuildWork, the unit of
// serve-lsm and of the store's merge choice); the wall time of the
// same open and snapshot is benchmark/'s persist.open_s and
// persist.snapshot_s.

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/serve"
)

func init() {
	register(Experiment{"persist", "cold build-from-scratch vs warm load-from-snapshot per family, in key visits and disk bytes", persistSweep})
}

// persistFamilies is the family set of the persist experiment: every
// family with a registered snapshot codec, tuned RMI first (the
// paper's extreme build-cost case), plus ART as the codec-less
// rebuild-at-load baseline.
var persistFamilies = []string{"RMI", "PGM", "RS", "RBS", "BTree", "ART"}

// persistRow builds family's store cold, snapshots it into dir, opens
// it warm and checks the warm store against ground truth, then appends
// the row: disk bytes per key, and the key visits per key of the cold
// build and of the warm load — the same builds on a codec-less family,
// which rebuilds at load, and none on a family whose index decodes.
func persistRow(t *report.Table, e *Env, family string, shards int, dir string) error {
	st, err := serve.New(e.Keys, e.Payloads, serve.Config{Shards: shards, Family: family})
	if err != nil {
		return err
	}
	var cold int64
	for i := range st.NumShards() {
		cold += registry.BuildWork(family, st.Shard(i).Len(), true)
	}
	err = st.Snapshot(dir)
	st.Close()
	if err != nil {
		return err
	}
	warm, err := serve.Open(dir, serve.Config{})
	if err != nil {
		return err
	}
	defer warm.Close()
	// Ready-to-serve means answering correctly: spot-check the warm
	// store against ground truth.
	for i := 0; i < len(e.Lookups) && i < 1000; i++ {
		x := e.Lookups[i]
		wantV, wantOK := uint64(0), false
		if pos := core.LowerBound(e.Keys, x); pos < len(e.Keys) && e.Keys[pos] == x {
			wantV, wantOK = e.Payloads[pos], true
		}
		if gotV, gotOK := warm.Get(x); gotV != wantV || gotOK != wantOK {
			return fmt.Errorf("persist: %s warm store wrong for key %d", family, x)
		}
	}
	loadKind, warmWork := "decode", int64(0)
	if _, ok := registry.CodecFor(family); !ok {
		loadKind, warmWork = "rebuild", cold
	}
	n := float64(len(e.Keys))
	t.Row([]string{family, loadKind},
		float64(dirSize(dir))/n, float64(cold)/n, float64(warmWork)/n)
	return nil
}

func dirSize(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// persistSweep reports the cold-vs-warm table: per family, the work to
// a ready-to-serve store from raw keys (cold) vs from a snapshot
// (warm), beside the snapshot's size on disk. The load dimension
// records how the warm path restored each index: "decode" for families
// with a snapshot codec, "rebuild" for codec-less families rebuilt at
// load.
func persistSweep(r *Run) ([]report.Table, error) {
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	const shards = 4
	t := report.New("persist",
		fmt.Sprintf("Persistence: cold build vs warm snapshot load (amzn, n=%d, %d shards)", r.options.N, shards)).
		Dims("index", "load").
		Float("disk(B/key)", "B/key", 2).
		Float("cold(v/key)", "visits/key", 2).
		Float("warm(v/key)", "visits/key", 2).
		Notef("cold and warm are key visits per key: registry.BuildWork(family, shard keys, base) summed over the shards, the keys written plus the passes that fit and tune each index").
		Notef("a decoded index costs no build at load (warm 0); a codec-less one is rebuilt from the loaded keys, priced as its cold build; every warm store is checked against ground truth")
	for _, family := range r.families(persistFamilies) {
		if !registry.Has(family) {
			continue
		}
		dir, err := os.MkdirTemp("", "sosd-persist-*")
		if err != nil {
			return nil, err
		}
		err = persistRow(t, e, family, shards, dir)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
	}
	return []report.Table{*t}, nil
}
