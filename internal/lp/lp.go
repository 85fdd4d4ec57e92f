// Package lp implements a two-phase primal simplex solver for linear
// programs in the form
//
//	maximize    c'x
//	subject to  a_i'x {<=,=,>=} b_i   for each row i
//	            l <= x <= u           (default l = 0, u = +inf)
//
// It is the substrate beneath the MIP branch-and-bound solver
// (internal/mip) and the column-generation master problem (internal/cg),
// replacing the off-the-shelf solver (Gurobi) used by the paper. The
// solver is exact up to floating-point tolerances, reports dual values
// (required by column-generation pricing), and is deterministic.
//
// The engine is a dense tableau simplex with Dantzig pricing and an
// automatic switch to Bland's rule when cycling is suspected. Variable
// bounds use the bounded-variable method: a nonbasic column sits at its
// lower or upper bound (an at-upper column is stored complemented), the
// primal ratio test includes bound flips, and the dual simplex repairs
// basic variables outside either bound. A bound costs no row.
//
// The tableau lives in a Workspace (see workspace.go) whose storage is
// flat, pooled, and reused across solves, and which supports warm
// starts from a captured Basis — the mechanism CG master re-solves use
// to re-optimize in a few pivots instead of a full two-phase solve.
//
// Branch-and-bound nodes take a cheaper warm path (anchor.go): the
// workspace snapshots the root relaxation's optimal dense tableau
// (Workspace.Anchor), and SolveNode solves each node from that anchor
// or from the live tableau the previous node left, whichever shares
// more basic columns with the node's parent basis. A node differs from
// the root only in its variable bounds, so both have the anchor's
// shape: a node costs the pivots for the few columns where its
// parent's basis differs from the chosen tableau's (plus a copy when
// that is the anchor), a right-hand-side shift for each nonbasic column
// whose bound moved, and the dual repair, instead of a rebuild of the
// tableau and a re-pivot of the whole basis. A node solve allocates
// nothing: its X and Duals are workspace buffers, valid until the next
// solve. Without an anchor (a root that did not end optimal) or with a
// basis that does not fit it, the caller falls back to SolveFrom.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/cloudsched/rasa/internal/solve"
)

// Sense is the relation of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // a'x <= b
	GE              // a'x >= b
	EQ              // a'x == b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Coef is a sparse coefficient: variable index and value.
type Coef struct {
	Var int
	Val float64
}

// Constraint is one row of the LP.
type Constraint struct {
	Coefs []Coef
	Sense Sense
	RHS   float64
}

// Problem is an LP instance. Variables are indexed 0..NumVars-1. The
// objective is always maximized; negate coefficients to minimize.
type Problem struct {
	NumVars   int
	Objective []Coef
	Rows      []Constraint
	// Lower and Upper are optional per-variable bounds (len NumVars).
	// Nil means [0, +inf): a nil Lower is all zeros, a nil Upper all
	// +inf. Lower must be finite and non-negative, and Lower <= Upper.
	// A bound costs no tableau row, so a branch-and-bound child or a
	// pricing model's p_s <= d_s states it here, not with AddRow.
	Lower, Upper []float64
}

// bound returns variable j's bounds.
func (p *Problem) bound(j int) (lo, up float64) {
	lo, up = 0, math.Inf(1)
	if p.Lower != nil {
		lo = p.Lower[j]
	}
	if p.Upper != nil {
		up = p.Upper[j]
	}
	return lo, up
}

// AddRow appends a constraint built from dense or sparse coefficients.
func (p *Problem) AddRow(coefs []Coef, sense Sense, rhs float64) {
	p.Rows = append(p.Rows, Constraint{Coefs: coefs, Sense: sense, RHS: rhs})
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal    Status = iota // optimal solution found
	Infeasible               // no feasible point exists
	Unbounded                // objective unbounded above
	IterLimit                // iteration or time budget exhausted; X is the best basic feasible point reached
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return "unknown"
}

// Solution holds the result of a solve.
type Solution struct {
	Status    Status
	X         []float64 // structural variable values (len NumVars)
	Objective float64   // c'x at X
	Duals     []float64 // one dual value per row, in the row order of the Problem
	// Stats reports simplex effort and why the solve stopped
	// (solve.Optimal, solve.Deadline, solve.Cancelled, or solve.NodeLimit
	// for the pivot budget; solve.None for infeasible/unbounded).
	Stats solve.Stats
}

// Options tune a solve.
type Options struct {
	// MaxIter is the total pivot budget of the solve, shared across
	// phase 1, phase 2, and warm-start repair; 0 means a size-derived
	// default.
	MaxIter  int
	Deadline time.Time // zero means no deadline
}

// Numerical tolerances. These are standard textbook magnitudes for a
// double-precision tableau simplex.
const (
	pivotEps = 1e-9 // minimum magnitude for a usable pivot element
	costEps  = 1e-9 // reduced-cost optimality tolerance
	feasEps  = 1e-7 // phase-1 residual tolerance for declaring feasibility
)

// ErrBadProblem reports a malformed LP (bad indices or non-finite data).
var ErrBadProblem = errors.New("lp: malformed problem")

// Solve solves the LP cold (full two-phase simplex) in a pooled
// Workspace. The context interrupts the solve between pivots (checked
// every solve.DefaultPollInterval iterations); an interrupted phase-2
// solve still reports the current basic feasible point, keeping the
// anytime contract. Callers solving many related LPs should hold a
// Workspace themselves and use its Solve/SolveFrom for storage reuse
// and warm starts.
func Solve(ctx context.Context, p *Problem, opts Options) (Solution, error) {
	w := AcquireWorkspace()
	defer w.Release()
	return w.Solve(ctx, p, opts)
}

func validate(p *Problem) error {
	// The happy path must not allocate: this runs once per solve, and a
	// branch-and-bound run solves thousands of node LPs. Error strings
	// (including the row label) are built only once a defect is found.
	check := func(cs []Coef, row int) error {
		for _, c := range cs {
			if c.Var < 0 || c.Var >= p.NumVars {
				return fmt.Errorf("%w: %s references variable %d of %d", ErrBadProblem, rowLabel(row), c.Var, p.NumVars)
			}
			if math.IsNaN(c.Val) || math.IsInf(c.Val, 0) {
				return fmt.Errorf("%w: %s has non-finite coefficient", ErrBadProblem, rowLabel(row))
			}
		}
		return nil
	}
	if p.NumVars < 0 {
		return fmt.Errorf("%w: negative variable count", ErrBadProblem)
	}
	if err := check(p.Objective, -1); err != nil {
		return err
	}
	for i, r := range p.Rows {
		if err := check(r.Coefs, i); err != nil {
			return err
		}
		if math.IsNaN(r.RHS) || math.IsInf(r.RHS, 0) {
			return fmt.Errorf("%w: row %d has non-finite RHS", ErrBadProblem, i)
		}
	}
	if (p.Lower != nil && len(p.Lower) != p.NumVars) || (p.Upper != nil && len(p.Upper) != p.NumVars) {
		return fmt.Errorf("%w: bounds of length %d/%d for %d variables", ErrBadProblem, len(p.Lower), len(p.Upper), p.NumVars)
	}
	if p.Lower == nil && p.Upper == nil {
		return nil
	}
	for j := 0; j < p.NumVars; j++ {
		// !(lo >= 0) and !(lo <= up) also catch NaN.
		if lo, up := p.bound(j); !(lo >= 0) || math.IsInf(lo, 1) || math.IsNaN(up) || !(lo <= up) {
			return fmt.Errorf("%w: variable %d has bounds [%g, %g]", ErrBadProblem, j, lo, up)
		}
	}
	return nil
}

// rowLabel names a constraint row (or the objective) in error messages.
func rowLabel(row int) string {
	if row < 0 {
		return "objective"
	}
	return fmt.Sprintf("row %d", row)
}
