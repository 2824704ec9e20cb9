//go:build race

package e2etest

// raceEnabled reports whether the race detector instruments this build;
// the cost ledger is skipped under it.
const raceEnabled = true
