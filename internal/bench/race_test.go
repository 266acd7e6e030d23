//go:build race

package bench

// Under the race detector TestPaperTablesMatchBenchResults and
// TestSSDStudyShape take minutes, a third of the package's test timeout,
// so they run on their first workload only. The full runs are in plain
// builds.
func init() { raceDetector = true }
