package lp

// WatchDualRepairs hands f the pivots and the stall backstop of every
// dual repair until the returned function is called.
func WatchDualRepairs(f func(pivots, limit int)) (stop func()) {
	dualRepaired = f
	return func() { dualRepaired = nil }
}
