//go:build probecount

package search

// compared logs the keys atMost compares, in order, in a -tags
// probecount build.
var compared []uint64

// atMost is the logging twin of the comparison in atmost.go.
func atMost[K Unsigned](k, x K) bool {
	compared = append(compared, uint64(k))
	return k <= x
}
