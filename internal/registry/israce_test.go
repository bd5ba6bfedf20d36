//go:build race

package registry

// lookupStride is how far apart TestBuildsSameUnderGOMAXPROCS takes the
// keys it bounds. The race detector is there for the concurrent build
// passes, not for the lookups, which run on one goroutine ten times
// slower than without it: every 97th key suffices.
const lookupStride = 97
