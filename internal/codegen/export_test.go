package codegen

// SetChain turns obs.Scratch.Chain on the O3 schedule on or off and
// returns a func restoring the previous setting.
func SetChain(on bool) (restore func()) {
	was := chainOneShots
	chainOneShots = on
	return func() { chainOneShots = was }
}
