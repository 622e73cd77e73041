//go:build !race

package fsr_test

const raceEnabled = false
