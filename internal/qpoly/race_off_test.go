//go:build !race

package qpoly

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
