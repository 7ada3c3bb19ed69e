//go:build race

package runtime

// raceEnabled reports whether the race detector is compiled in; the
// allocation pins skip under it (its instrumentation allocates).
const raceEnabled = true
