//go:build race

package chopper

// Under the race detector the product-program sweep keeps the first
// configuration of each domain, as -short does: the full sweep is minutes
// there.
func init() { raceDetector = true }
