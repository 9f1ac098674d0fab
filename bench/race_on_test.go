//go:build race

package main

// raceEnabled relaxes the tests' timing assertions: the race detector slows
// the stack several times over.
const raceEnabled = true
