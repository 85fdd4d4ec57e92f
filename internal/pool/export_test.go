package pool

// SolveAllOnSlots is the batch SolveAll runs, on slots the caller
// made, so a test can read how many solver goroutines ran at once.
var SolveAllOnSlots = solveAll
