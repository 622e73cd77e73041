//go:build race

package vsc

// exploreRaceCut shortens every explorer branch under the race detector,
// which runs the search several times slower.
const exploreRaceCut = 2
