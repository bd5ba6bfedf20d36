package bench

// The cold-start experiment: the paper's Figure-9/17 story — build and
// tune cost as a first-class axis, with an auto-tuned RMI orders of
// magnitude more expensive to produce than to use — retold at the
// serving layer. Cold start builds (and for learned families, tunes)
// every shard index from scratch; warm start loads a snapshot, decoding
// trained parameters instead of retraining, exactly as SOSD caches
// built indexes on disk to make its sweeps tractable. The gap is the
// restart-latency win the persistence subsystem buys a server.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/report"
	"repro/internal/serve"
)

func init() {
	register(Experiment{"persist", "cold build-from-scratch vs warm load-from-snapshot per family", persistSweep})
}

// persistFamilies is the family set of the persist experiment: every
// family with a registered snapshot codec, tuned RMI first (the
// paper's extreme build-cost case), plus ART as the codec-less
// rebuild-at-load baseline.
var persistFamilies = []string{"RMI", "PGM", "RS", "RBS", "BTree", "ART"}

// persistResult is one family's cold/warm measurement.
type persistResult struct {
	cold      time.Duration // New: build + tune every shard from raw keys
	snapshotT time.Duration // Snapshot: serialize tables + indexes + WALs
	warm      time.Duration // Open: load + decode, no retraining
	diskBytes int64
	speedup   float64
}

// measurePersist measures one family's cold build vs warm load over
// the environment's data, using dir for the snapshot.
func measurePersist(e *Env, family string, shards int, dir string) (persistResult, error) {
	var res persistResult

	start := time.Now()
	st, err := serve.New(e.Keys, e.Payloads, serve.Config{Shards: shards, Family: family})
	if err != nil {
		return res, err
	}
	res.cold = time.Since(start)

	start = time.Now()
	if err := st.Snapshot(dir); err != nil {
		st.Close()
		return res, err
	}
	res.snapshotT = time.Since(start)
	st.Close()
	res.diskBytes = dirSize(dir)

	start = time.Now()
	warm, err := serve.Open(dir, serve.Config{})
	if err != nil {
		return res, err
	}
	res.warm = time.Since(start)

	// Ready-to-serve means answering correctly: spot-check the warm
	// store against ground truth before trusting the timing.
	for i := 0; i < len(e.Lookups) && i < 1000; i++ {
		x := e.Lookups[i]
		wantV, wantOK := uint64(0), false
		if pos := core.LowerBound(e.Keys, x); pos < len(e.Keys) && e.Keys[pos] == x {
			wantV, wantOK = e.Payloads[pos], true
		}
		gotV, gotOK := warm.Get(x)
		if gotV != wantV || gotOK != wantOK {
			warm.Close()
			return res, fmt.Errorf("persist: %s warm store wrong for key %d", family, x)
		}
	}
	warm.Close()
	res.speedup = float64(res.cold) / float64(res.warm)
	return res, nil
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

// persistSweep reports the cold-vs-warm table: per family, time to a
// ready-to-serve store from raw keys (cold) vs from a snapshot (warm),
// with snapshot cost and on-disk size. The load dimension records how
// the warm path restored each index: "decode" for families with a
// snapshot codec, "rebuild" for codec-less families rebuilt at load.
func persistSweep(r *Run) ([]report.Table, error) {
	e, err := r.env(dataset.Amzn)
	if err != nil {
		return nil, err
	}
	const shards = 4
	t := report.New("persist",
		fmt.Sprintf("Persistence: cold build vs warm snapshot load (amzn, n=%d, %d shards)", r.options.N, shards)).
		Dims("index", "load").
		Float("cold(ms)", "ms", 1).
		Float("warm(ms)", "ms", 1).
		Float("speedup", "x", 1).
		Float("snap(ms)", "ms", 1).
		Float("disk(MB)", "MB", 2)
	for _, family := range r.families(persistFamilies) {
		if !registry.Has(family) {
			continue
		}
		dir, err := os.MkdirTemp("", "sosd-persist-*")
		if err != nil {
			return nil, err
		}
		res, err := measurePersist(e, family, shards, dir)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		loadKind := "decode"
		if _, ok := registry.CodecFor(family); !ok {
			loadKind = "rebuild"
		}
		t.Row([]string{family, loadKind},
			float64(res.cold.Microseconds())/1000,
			float64(res.warm.Microseconds())/1000,
			res.speedup,
			float64(res.snapshotT.Microseconds())/1000,
			float64(res.diskBytes)/(1<<20))
	}
	return []report.Table{*t}, nil
}
