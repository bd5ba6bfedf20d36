//go:build probecount

package search

import "repro/internal/core"

// compared counts atMost's calls in a -tags probecount build.
var compared int

// atMost is the counting twin of the comparison in atmost.go.
func atMost(k, x core.Key) bool {
	compared++
	return k <= x
}
