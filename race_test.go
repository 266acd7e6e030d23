//go:build race

package chopper

// Under the race detector the runtime drops sync.Pool puts at random, so
// TestVerifyAllocGate does not hold a warm trial to its byte bound; and
// TestBaselineGoldenPrograms runs only the 64-wide kernels' programs on
// the simulator, as -short does: all of them take a minute there.
func init() { raceDetector = true }
