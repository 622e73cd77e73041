//go:build race

package fsr_test

// raceEnabled lets allocation budgets stand down under the race detector,
// whose runtime allocates differently (see TestPublishCopyBudget).
const raceEnabled = true
