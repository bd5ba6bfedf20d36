//go:build !probecount

package search

import "repro/internal/core"

// atMost is every comparison Pred and PredBranchless make. Building
// with -tags probecount swaps in a counting twin (atmost_count.go), so
// a test can hold the kernels' probe sequences to Probes.
func atMost(k, x core.Key) bool { return k <= x }
