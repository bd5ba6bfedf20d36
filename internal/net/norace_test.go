//go:build !race

package net

const raceEnabled = false
