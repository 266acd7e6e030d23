//go:build race

package prove

// Under the race detector the prover table takes about ten times the time
// and memory of a plain run (minutes and gigabytes in full), so it runs
// its -short subset.
func init() { raceDetector = true }
