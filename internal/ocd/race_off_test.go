//go:build !race

package ocd

const raceEnabled = false
