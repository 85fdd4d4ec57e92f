// Package solve defines the cross-cutting solve contract shared by every
// layer of the optimization stack (internal/lp → internal/mip →
// internal/cg → internal/pool → internal/core): interruptible solves via
// context.Context, a uniform vocabulary of stop causes, and per-solve
// statistics that surface where the time budget went.
//
// The contract every solver in this module honours:
//
//   - Anytime: a solver interrupted by deadline or cancellation returns
//     its best incumbent found so far (possibly a greedy fallback), never
//     an error, mirroring the paper's use of Gurobi's anytime incumbents
//     under a 60 s time-out.
//   - Cheap polling: inner loops (simplex pivots, branch-and-bound node
//     pops, CG master/pricing rounds) consult the context only once every
//     N iterations via Poll, so cancellation support costs nothing on the
//     hot path.
//   - Populated stats: every solve reports iteration counts, per-phase
//     wall time, and the StopCause that ended it, aggregated upward into
//     pool.Result and core.Result.
package solve

import (
	"context"
	"time"
)

// StopCause reports why a solve stopped.
type StopCause int

// Stop causes.
const (
	// None: the solve has not produced a cause (e.g. infeasible or
	// unbounded outcomes, which the per-solver Status reports).
	None StopCause = iota
	// Optimal: the solver proved optimality (within its gap tolerance).
	Optimal
	// Deadline: the wall-clock budget expired.
	Deadline
	// Cancelled: the context was cancelled (caller shutdown, or a sibling
	// race decided this solve cannot win).
	Cancelled
	// NodeLimit: a discrete work budget (B&B nodes, simplex pivots, CG
	// rounds) was exhausted before the deadline.
	NodeLimit
)

func (c StopCause) String() string {
	switch c {
	case None:
		return "none"
	case Optimal:
		return "optimal"
	case Deadline:
		return "deadline"
	case Cancelled:
		return "cancelled"
	case NodeLimit:
		return "node-limit"
	}
	return "unknown"
}

// Stats aggregates solver effort. Each layer fills the fields it owns
// and merges in the stats of the sub-solves it dispatched; zero-valued
// fields simply mean "not applicable at this layer".
type Stats struct {
	// SimplexIters counts simplex pivots across all LP solves.
	SimplexIters int
	// WarmPivots counts the subset of SimplexIters performed on a
	// warm-started path (dual-simplex repair from a parent basis, or a
	// primal re-solve from a previous vertex); ColdPivots counts pivots
	// of full two-phase solves. WarmPivots+ColdPivots == SimplexIters.
	WarmPivots int
	ColdPivots int
	// BasisPivots counts the pivots that re-derive a known basis before
	// a warm solve starts (Gauss-Jordan onto a captured basis, or the
	// rebase of a branch-and-bound node onto its parent's basis). They
	// are not simplex iterations and are not in SimplexIters.
	BasisPivots int
	// Nodes counts branch-and-bound nodes explored.
	Nodes int
	// Incumbents counts integer-feasible incumbents accepted.
	Incumbents int
	// Columns counts column-generation patterns generated.
	Columns int
	// PricingRounds counts CG master/pricing iterations.
	PricingRounds int
	// Per-phase wall time of a CG solve: restricted master LPs, pricing
	// subproblems, and the final integral rounding.
	MasterTime   time.Duration
	PricingTime  time.Duration
	RoundingTime time.Duration
	// Wall is the total wall time of the solve.
	Wall time.Duration
	// Stop is why the solve ended.
	Stop StopCause
}

// Merge adds o's counters and phase times into s. Stop and Wall are
// owned by the aggregating layer and are not merged.
func (s *Stats) Merge(o Stats) {
	s.SimplexIters += o.SimplexIters
	s.WarmPivots += o.WarmPivots
	s.ColdPivots += o.ColdPivots
	s.BasisPivots += o.BasisPivots
	s.Nodes += o.Nodes
	s.Incumbents += o.Incumbents
	s.Columns += o.Columns
	s.PricingRounds += o.PricingRounds
	s.MasterTime += o.MasterTime
	s.PricingTime += o.PricingTime
	s.RoundingTime += o.RoundingTime
}

// Cause maps a context error to its StopCause. A nil error maps to None.
func Cause(err error) StopCause {
	switch err {
	case nil:
		return None
	case context.DeadlineExceeded:
		return Deadline
	default:
		return Cancelled
	}
}

// Interrupted reports whether the solve must stop now — the context is
// done or the explicit deadline has passed — and the corresponding stop
// cause. A zero deadline means "no deadline beyond the context's own".
func Interrupted(ctx context.Context, deadline time.Time) (StopCause, bool) {
	if err := ctx.Err(); err != nil {
		return Cause(err), true
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		return Deadline, true
	}
	return None, false
}

// Poll is a cheap cancellation checker for hot loops: it consults the
// context (and the optional deadline) only once every Every iterations,
// so the per-iteration cost is one integer increment and compare.
type Poll struct {
	ctx      context.Context
	deadline time.Time
	every    int
	n        int
}

// DefaultPollInterval bounds how many inner-loop iterations may pass
// between context checks; it is the poll-latency knob tracked by
// BenchmarkCancellationLatency.
const DefaultPollInterval = 64

// NewPoll builds a Poll checking ctx (and deadline, when non-zero) every
// `every` iterations; every <= 0 uses DefaultPollInterval.
func NewPoll(ctx context.Context, deadline time.Time, every int) *Poll {
	if every <= 0 {
		every = DefaultPollInterval
	}
	return &Poll{ctx: ctx, deadline: deadline, every: every}
}

// Interrupted increments the iteration counter and, on every poll
// boundary, reports whether the solve must stop and why.
func (p *Poll) Interrupted() (StopCause, bool) {
	p.n++
	if p.n%p.every != 0 {
		return None, false
	}
	return Interrupted(p.ctx, p.deadline)
}
