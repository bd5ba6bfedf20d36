//go:build race

package rs

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = true
