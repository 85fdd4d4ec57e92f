// Package pool is the scheduling algorithm pool of Section IV-C: the
// two solver-based algorithms (MIP-based and column generation) behind a
// single interface, so the algorithm-selection phase can dispatch each
// subproblem to either.
package pool

import (
	"context"
	"fmt"
	"time"

	"github.com/cloudsched/rasa/internal/cg"
	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/lp"
	"github.com/cloudsched/rasa/internal/mip"
	"github.com/cloudsched/rasa/internal/model"
	"github.com/cloudsched/rasa/internal/solve"
)

// Algorithm identifies a member of the pool.
type Algorithm int

// Pool members.
const (
	CG  Algorithm = iota // column generation (Section IV-C2)
	MIP                  // direct MIP via branch and bound (Section IV-C1)
)

func (a Algorithm) String() string {
	switch a {
	case CG:
		return "CG"
	case MIP:
		return "MIP"
	}
	return "unknown"
}

// Result is a solved subproblem.
type Result struct {
	Placements []model.Placement
	Objective  float64 // gained affinity of the placements
	Algorithm  Algorithm
	OutOfTime  bool // the budget expired before a solution was found
	// Stats is the solver effort behind this result: iteration counts,
	// per-phase wall time, and the cause that stopped the solve.
	Stats solve.Stats
	// Race, set only by SolveRace (the selector's offline labeller),
	// records the head-to-head outcome; Algorithm then names the winning
	// arm.
	Race *RaceOutcome
}

// maxMIPFloats bounds the float64s a direct-MIP solve allocates
// (mipFloats), 160 MB. Formulations beyond this bound cannot complete a
// single LP solve within any practical budget on this substrate and are
// reported OutOfTime immediately — reproducing the OOT entries of
// Fig. 6/Fig. 9 for the NO-PARTITION configuration — instead of
// allocating a tableau that size.
const maxMIPFloats = 20_000_000

// mipFloats is what branch-and-bound over m allocates: the simplex
// tableau of an m-row, n-variable LP, about (m+1)·(n+2m+1) float64s
// (a GE row adds a surplus and an artificial column), twice over, since
// the root's optimal tableau is kept as the nodes' anchor.
func mipFloats(m *model.MIPModel) int64 {
	rows, vars := int64(m.NumRows()), int64(m.NumVars())
	return 2 * (rows + 1) * (vars + 2*rows + 1)
}

// Solve dispatches the subproblem to the chosen algorithm with the
// given deadline. Both algorithms are anytime: with an expired deadline
// or a cancelled context they return their best (possibly greedy)
// feasible schedule rather than an error.
func Solve(ctx context.Context, sp *cluster.Subproblem, alg Algorithm, deadline time.Time) (Result, error) {
	switch alg {
	case CG:
		return SolveCG(ctx, sp, deadline)
	case MIP:
		return SolveMIP(ctx, sp, deadline)
	}
	return Result{}, fmt.Errorf("pool: unknown algorithm %d", alg)
}

// SolveMIP solves the subproblem with the direct MIP formulation.
func SolveMIP(ctx context.Context, sp *cluster.Subproblem, deadline time.Time) (Result, error) {
	return solveMIP(ctx, sp, deadline, nil, nil)
}

// WarmStart caches the root-relaxation basis of a subproblem's last MIP
// solve, keyed by formulation shape. The incremental engine keeps one
// per partition subproblem: when a delta leaves the formulation shape
// intact (e.g. an affinity-weight update, or a replica change that
// keeps the same machine set), the next solve of that subproblem seeds
// its root simplex from here instead of starting cold. The basis is
// validated downstream, so a cache that turns out stale merely falls
// back to the cold path.
type WarmStart struct {
	Vars, Rows int
	Basis      *lp.Basis
}

// solveMIP is the one direct-MIP solve behind SolveMIP, SolveAllWarm
// and SolveRace. A non-nil warm seeds the root simplex from its cached
// basis when the cached shape matches the freshly built formulation,
// and is refreshed with the new root basis. A non-nil cutoff stops the
// branch and bound with a Cancelled stop cause once it reports (c,
// true) and the proven global upper bound cannot exceed c; the
// labelling race uses it to abandon a MIP solve once the concurrent CG
// result is provably unbeatable.
func solveMIP(ctx context.Context, sp *cluster.Subproblem, deadline time.Time, warm *WarmStart, cutoff func() (float64, bool)) (Result, error) {
	m, err := model.BuildMIP(sp)
	if err != nil {
		return Result{}, err
	}
	if mipFloats(m) > maxMIPFloats {
		return Result{Algorithm: MIP, OutOfTime: true}, nil
	}
	opts := mip.Options{Deadline: deadline, Rounder: m.Rounder(), Cutoff: cutoff}
	if warm != nil && warm.Basis != nil && warm.Vars == m.NumVars() && warm.Rows == m.NumRows() {
		opts.RootBasis = warm.Basis
	}
	sol, err := mip.Solve(ctx, &m.Prob, opts)
	if err != nil {
		return Result{}, err
	}
	if warm != nil && sol.RootBasis != nil {
		warm.Vars, warm.Rows, warm.Basis = m.NumVars(), m.NumRows(), sol.RootBasis
	}
	if sol.X == nil {
		return Result{Algorithm: MIP, OutOfTime: true, Stats: sol.Stats}, nil
	}
	return Result{
		Placements: m.Extract(sol.X),
		Objective:  m.AffinityValue(sol.X),
		Algorithm:  MIP,
		Stats:      sol.Stats,
	}, nil
}

// SolveCG solves the subproblem with column generation.
func SolveCG(ctx context.Context, sp *cluster.Subproblem, deadline time.Time) (Result, error) {
	res, err := cg.Solve(ctx, sp, cg.Options{Deadline: deadline})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Placements: res.Placements,
		Objective:  res.Objective,
		Algorithm:  CG,
		Stats:      res.Stats,
	}, nil
}
