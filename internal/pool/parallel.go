package pool

import (
	"context"
	"runtime"
	"sync"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/solve"
)

// SolveAll solves every subproblem concurrently, dispatching each to the
// algorithm algFor(i), under one shared wall-clock budget. Subproblems
// are independent after partitioning (Section IV-A), so parallel solving
// is exactly what the production deployment does. The shared budget is
// enforced by a derived context deadline, so when it expires every
// in-flight sibling solve is cancelled together and returns its best
// incumbent; cancelling the parent context has the same effect. Results
// are returned in subproblem order; a subproblem whose solve errors
// yields an empty OutOfTime result rather than failing the batch,
// mirroring the paper's tolerance of failed deployments.
func SolveAll(ctx context.Context, subs []*cluster.Subproblem, algFor func(i int) Algorithm, budget time.Duration, parallelism int) []Result {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return solveAll(ctx, subs, algFor, time.Now().Add(budget), solve.NewSlots(parallelism))
}

// solveAll runs SolveAll's batch on slots: every subproblem
// goroutine holds one while it solves, and the solves may run helpers
// on the spare ones (CG prices a round's machine groups side by side),
// so the number of slots caps the solver goroutines running at once.
func solveAll(parent context.Context, subs []*cluster.Subproblem, algFor func(i int) Algorithm, deadline time.Time, slots *solve.Slots) []Result {
	ctx, cancel := context.WithDeadline(parent, deadline)
	defer cancel()
	ctx = solve.WithSlots(ctx, slots)
	results := make([]Result, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slots.Acquire()
			defer slots.Release()
			alg := algFor(i)
			res, err := Solve(ctx, subs[i], alg, deadline)
			switch {
			case err != nil:
				res = Result{Algorithm: alg, OutOfTime: true}
			case alg == MIP && len(res.Placements) == 0:
				// A CG pick is anytime — it always returns an
				// incumbent — but a MIP pick that hits the shared
				// deadline (or the size guard) before rounding its
				// first integral solution returns nothing, and the
				// merge would leave the subproblem on its original
				// assignment. Give it CG's greedy floor: a bounded
				// overtime slice on the parent context, so a starved
				// (or mispredicted) MIP pick degrades to roughly a CG
				// solve instead of a hole in the new assignment.
				if parent.Err() == nil {
					stats := res.Stats
					if cg, cgErr := SolveCG(parent, subs[i], time.Now().Add(mipFloorBudget)); cgErr == nil && len(cg.Placements) > 0 {
						res = cg
						// Still a MIP pick, still out of time — the
						// floor only fills the placement hole.
						res.Algorithm = MIP
						res.OutOfTime = true
						res.Stats.Merge(stats)
					}
				}
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	return results
}

// mipFloorBudget bounds the per-subproblem overtime a placement-less
// MIP pick may spend computing its CG greedy floor.
const mipFloorBudget = 150 * time.Millisecond
