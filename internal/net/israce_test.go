//go:build race

package net

// raceEnabled reports whether the test binary runs under the race
// detector, where wall-time bounds measured on the client side of a
// loaded generator do not hold.
const raceEnabled = true
