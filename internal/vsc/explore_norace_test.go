//go:build !race

package vsc

const exploreRaceCut = 0
