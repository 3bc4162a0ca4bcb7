//go:build !race

package rbc

const raceEnabled = false
