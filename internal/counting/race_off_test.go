//go:build !race

package counting

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
