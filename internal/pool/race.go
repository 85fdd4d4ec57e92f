package pool

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
)

// RaceMargin is how clearly MIP must beat CG to win a race: near-ties
// are dominated by solver timing noise. Outcomes within the margin are
// reported as ties (Winner CG — the cheaper algorithm — but flagged so
// training pipelines can down-weight or skip them instead of learning a
// false CG preference).
const RaceMargin = 0.01

// RaceOutcome records the head-to-head result of racing both pool
// algorithms on one subproblem. It is the labelled example the offline
// selector trains on: Winner is the oracle label, Tie and Margin qualify
// how trustworthy that label is.
type RaceOutcome struct {
	// CGObjective and MIPObjective are the gained-affinity objectives the
	// two arms returned under the shared deadline.
	CGObjective  float64
	MIPObjective float64
	// Winner is the algorithm whose result the race adopted. Ties go to
	// CG, the cheaper algorithm.
	Winner Algorithm
	// Tie reports that MIP completed with an objective within RaceMargin
	// of CG's, so the label is timing noise rather than signal.
	Tie bool
	// Margin is the relative objective gap (MIP - CG) / max(|CG|, eps):
	// positive when MIP found more affinity, negative when CG did. A MIP
	// arm stopped by the cutoff understates its objective, which only
	// widens a negative margin — it cannot fake a MIP win.
	Margin float64
	// MIPOutOfTime reports the MIP arm produced no placements at all
	// (budget or cutoff expired before any incumbent).
	MIPOutOfTime bool
}

// SolveRace runs both pool algorithms on the subproblem concurrently
// under the shared deadline and returns the better result, with
// Result.Race describing the head-to-head outcome (Section IV-D: "we
// attempt each subproblem with the two candidate algorithms and choose
// the one that returns better objective within a time limit").
//
// CG runs on its own goroutine, MIP on the calling one. Once CG
// finishes, its objective feeds the MIP solve as a cutoff, so the branch
// and bound stops the moment its proven upper bound shows it cannot beat
// CG by RaceMargin — the losing arm is cancelled instead of running out
// its budget. Ties go to CG.
func SolveRace(ctx context.Context, sp *cluster.Subproblem, deadline time.Time) (Result, error) {
	var (
		cgObjBits atomic.Uint64
		cgDone    = make(chan struct{})
		cgRes     Result
		cgErr     error
	)
	go func() {
		defer close(cgDone)
		cgRes, cgErr = SolveCG(ctx, sp, deadline)
		if cgErr == nil {
			cgObjBits.Store(math.Float64bits(cgRes.Objective))
		}
	}()

	cutoff := func() (float64, bool) {
		select {
		case <-cgDone:
		default:
			return 0, false
		}
		return math.Float64frombits(cgObjBits.Load()) * (1 + RaceMargin), true
	}
	mipRes, mipErr := solveMIP(ctx, sp, deadline, nil, cutoff)
	<-cgDone
	if cgErr != nil {
		return Result{}, cgErr
	}
	if mipErr != nil {
		return Result{}, mipErr
	}

	ro := &RaceOutcome{
		CGObjective:  cgRes.Objective,
		MIPObjective: mipRes.Objective,
		Winner:       CG,
		MIPOutOfTime: mipRes.OutOfTime,
	}
	ro.Margin = (mipRes.Objective - cgRes.Objective) / math.Max(math.Abs(cgRes.Objective), 1e-9)
	// A MIP arm stopped by the cutoff has a proven bound below the margin
	// threshold, so this comparison cannot falsely promote it.
	if !mipRes.OutOfTime && mipRes.Objective > cgRes.Objective*(1+RaceMargin)+1e-9 {
		ro.Winner = MIP
	}
	// MIP delivered an incumbent inside the margin band in either
	// direction: the race was decided by noise, not by the algorithms.
	ro.Tie = !mipRes.OutOfTime && ro.Winner == CG &&
		mipRes.Objective >= cgRes.Objective*(1-RaceMargin)-1e-9

	out := cgRes
	if ro.Winner == MIP {
		out = mipRes
	}
	// The race's effort is both arms' effort; keep the winner's wall/stop.
	merged := out.Stats
	if ro.Winner == MIP {
		merged.Merge(cgRes.Stats)
	} else {
		merged.Merge(mipRes.Stats)
	}
	out.Stats = merged
	out.Race = ro
	return out, nil
}
