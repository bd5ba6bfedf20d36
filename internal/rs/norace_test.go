//go:build !race

package rs

const raceEnabled = false
