//go:build race

package rbc

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put into it, so allocation pins do not apply.
const raceEnabled = true
