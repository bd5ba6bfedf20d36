//go:build !probecount

package search

// atMost is every comparison the ladder makes. Building with -tags
// probecount swaps in a logging twin (atmost_count.go), so a test can
// hold the ladder's probes to Replay's slots.
func atMost[K Unsigned](k, x K) bool { return k <= x }
