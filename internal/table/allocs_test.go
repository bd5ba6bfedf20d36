//go:build !race

package table

import (
	"testing"

	"repro/internal/dataset"
)

// TestGetBatchAllocs: a warm Table.GetBatch allocates nothing — the
// block scratch (bounds included, which pass through an interface call
// and would otherwise escape) comes from the pool. Excluded under
// -race, where sync.Pool drops items on purpose.
func TestGetBatchAllocs(t *testing.T) {
	keys := dataset.MustGenerate(dataset.Amzn, 20000, 7)
	probes := dataset.Lookups(keys, batchBlock, 3)
	out := make([]uint64, len(probes))
	for _, family := range []string{"PGM", "BTree"} {
		tbl := buildTable(t, family, keys, nil)
		tbl.GetBatch(probes, out) // warm the pool
		if n := testing.AllocsPerRun(200, func() { tbl.GetBatch(probes, out) }); n != 0 {
			t.Errorf("%s: Table.GetBatch of %d keys allocates %v times per call, want 0", family, len(probes), n)
		}
	}
}
