// Autotune: show how the CDFShop-style tuner adapts the RMI
// architecture to each dataset's CDF — the flexibility/complexity
// tradeoff the paper discusses in Section 3.4.
//
// Easy datasets (amzn, wiki) get cheap linear stages; the erratic osm
// CDF drives the tuner to larger branching factors, and the error
// statistics make the difficulty visible.
package main

import (
	"fmt"
	"log"

	"repro/internal/dataset"
	"repro/internal/pgm"
	"repro/internal/rmi"
	"repro/internal/rs"
)

func main() {
	const n = 200_000
	const budget = 512 << 10 // 512 KiB index budget

	fmt.Printf("%-6s %-28s %10s %10s %10s %10s\n",
		"data", "tuned RMI", "rmi KiB", "rmi log2e", "pgm segs", "rs knots")
	for _, name := range dataset.All() {
		keys := dataset.MustGenerate(name, n, 42)

		cfg := rmi.Tune(keys, budget)
		idx, err := rmi.New(keys, cfg)
		if err != nil {
			log.Fatal(err)
		}

		// The bottom-up structures expose the same difficulty through
		// their segment counts at a fixed error.
		p, err := pgm.New(keys, 32)
		if err != nil {
			log.Fatal(err)
		}
		r, err := rs.New(keys, rs.Config{SplineErr: 32, RadixBits: 14})
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("%-6s %-28s %10.1f %10.2f %10d %10d\n",
			name, cfg, float64(idx.SizeBytes())/1024, idx.AvgLog2Error(),
			p.NumSegments(), r.Arrays()[2].Len) // RS's third array is its spline points' keys
	}
	fmt.Println("\nHigher log2 error / more segments at equal budget = harder CDF (osm).")
}
