//go:build race

package jit_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation pins skip under it (its instrumentation allocates).
const raceEnabled = true
