//go:build !race

package aco_test

// raceEnabled reports whether the race detector is compiled in; memory
// gates skip under it because instrumentation changes what is allocated.
const raceEnabled = false
