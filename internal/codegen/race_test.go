//go:build race

package codegen_test

// Under the race detector TestChainNeverLonger's full sweep takes minutes,
// most of the package's test timeout, so it runs its -short subset. The
// full sweep runs in plain builds.
func init() { raceDetector = true }
