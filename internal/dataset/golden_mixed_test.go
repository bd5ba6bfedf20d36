package dataset_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/load"
)

// TestGoldenStreamsMixedOps is TestGoldenStreams' row for the composed
// stream the store workloads run: the keys of load.MixedOps (zipfian
// reads, InsertKeys inserts, zipfian updates, in schedule order),
// recorded at commit c5f58c4. It lives in the external test package
// because load imports dataset.
func TestGoldenStreamsMixedOps(t *testing.T) {
	golden := map[dataset.Name]uint64{
		dataset.Amzn: 0xbd80f8720b19a7ba,
		dataset.Face: 0x810682cea4283b87,
		dataset.OSM:  0xfbfafcfaa7abdc8e,
		dataset.Wiki: 0x25a6447d42731cad,
	}
	for _, ds := range dataset.All() {
		ops := load.MixedOps(dataset.MustGenerate(ds, 50_000, 1), 20_000, 0.5, 0.99, 7)
		keys := make([]core.Key, len(ops))
		for i, op := range ops {
			keys[i] = op.Key
		}
		if got := dataset.Checksum(keys); got != golden[ds] {
			t.Errorf("%s: MixedOps key stream checksum %016x, want %016x", ds, got, golden[ds])
		}
	}
}
