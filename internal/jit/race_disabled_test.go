//go:build !race

package jit_test

const raceEnabled = false
