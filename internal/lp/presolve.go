package lp

import "math"

// Presolve status codes. psOK means a (possibly empty) reduced problem
// remains; the terminal codes decide the solve without running simplex.
const (
	psOK = iota
	psInfeasible
	psUnbounded
)

// presolver shrinks a Problem before the sparse kernel sees it:
// fixed variables are substituted into the RHS, singleton rows become
// variable bounds (assignment-style `x <= 1` rows leave the matrix
// entirely), empty rows become feasibility checks, and empty or
// dominated columns are fixed at a bound. Every reduction records the
// provenance it needs — which row produced a bound, which row fixed a
// variable — so postsolve can reconstruct the full primal point AND a
// complete, sign-correct dual vector for the original rows.
type presolver struct {
	p *Problem

	// Merged views of the problem: duplicate Var entries summed and
	// zero coefficients dropped, per row and per column.
	rowCoefs [][]Coef // per row: merged coefficients
	colRows  [][]Coef // per var: (Var=row index, Val=coefficient)
	obj      []float64

	// Per original variable.
	fixed  []bool
	fixVal []float64
	lo, up []float64
	loRow  []int // row that produced lo (-1: default lo=0)
	upRow  []int // row that produced up (-1: none)
	eqRow  []int // EQ singleton row that fixed the var (-1: none)

	// Per original row.
	dropped  []bool
	rhs      []float64 // RHS after fixed-variable substitution
	boundVar []int     // var whose bound/fixing row i produced (-1: none)
	dropSeq  []int     // rows in drop order, for postsolve dual recovery

	// Maps into the reduced problem, filled by form().
	origVar []int
	origRow []int
	redVar  []int // original var -> reduced index (-1 when fixed)
	redRow  []int
}

func newPresolver(p *Problem) *presolver {
	m, n := len(p.Rows), p.NumVars
	ps := &presolver{
		p:        p,
		rowCoefs: make([][]Coef, m),
		colRows:  make([][]Coef, n),
		obj:      make([]float64, n),
		fixed:    make([]bool, n),
		fixVal:   make([]float64, n),
		lo:       make([]float64, n),
		up:       make([]float64, n),
		loRow:    make([]int, n),
		upRow:    make([]int, n),
		eqRow:    make([]int, n),
		dropped:  make([]bool, m),
		rhs:      make([]float64, m),
		boundVar: make([]int, m),
		dropSeq:  make([]int, 0, m),
	}
	for i := 0; i < m; i++ {
		ps.boundVar[i] = -1
	}
	for j := 0; j < n; j++ {
		ps.lo[j], ps.up[j] = p.bound(j)
		ps.loRow[j], ps.upRow[j], ps.eqRow[j] = -1, -1, -1
	}
	for _, c := range p.Objective {
		ps.obj[c.Var] += c.Val
	}
	// Merge duplicate coefficients with an epoch-stamped accumulator so
	// the cost is O(nnz), not O(m·n).
	acc := make([]float64, n)
	stamp := make([]int, n)
	epoch := 0
	for i, r := range p.Rows {
		epoch++
		merged := make([]Coef, 0, len(r.Coefs))
		for _, c := range r.Coefs {
			if stamp[c.Var] != epoch {
				stamp[c.Var] = epoch
				acc[c.Var] = 0
				merged = append(merged, Coef{Var: c.Var})
			}
			acc[c.Var] += c.Val
		}
		out := merged[:0]
		for _, c := range merged {
			if v := acc[c.Var]; v != 0 {
				out = append(out, Coef{Var: c.Var, Val: v})
			}
		}
		ps.rowCoefs[i] = out
		ps.rhs[i] = r.RHS
		for _, c := range out {
			ps.colRows[c.Var] = append(ps.colRows[c.Var], Coef{Var: i, Val: c.Val})
		}
	}
	return ps
}

// fix substitutes variable j at value v into every live row.
func (ps *presolver) fix(j int, v float64) {
	ps.fixed[j] = true
	ps.fixVal[j] = v
	for _, e := range ps.colRows[j] {
		if !ps.dropped[e.Var] {
			ps.rhs[e.Var] -= e.Val * v
		}
	}
}

// drop retires row i, recording the order for dual recovery.
func (ps *presolver) drop(i int) {
	ps.dropped[i] = true
	ps.dropSeq = append(ps.dropSeq, i)
}

// clamp snaps v into [lo, up] (guards tiny tolerance overshoots).
func clamp(v, lo, up float64) float64 {
	if v < lo {
		return lo
	}
	if v > up {
		return up
	}
	return v
}

// run iterates the reduction passes to a near-fixpoint and reports
// psOK / psInfeasible / psUnbounded.
func (ps *presolver) run() int {
	for pass := 0; pass < 16; pass++ {
		changed := false
		if st := ps.rowPass(&changed); st != psOK {
			return st
		}
		if st := ps.colPass(&changed); st != psOK {
			return st
		}
		if !changed {
			break
		}
	}
	return psOK
}

// rowPass removes empty rows (feasibility checks) and converts
// singleton rows into variable bounds or fixings.
func (ps *presolver) rowPass(changed *bool) int {
	for i := range ps.rowCoefs {
		if ps.dropped[i] {
			continue
		}
		cnt, lastJ, lastA := 0, -1, 0.0
		for _, c := range ps.rowCoefs[i] {
			if !ps.fixed[c.Var] {
				cnt++
				lastJ, lastA = c.Var, c.Val
				if cnt > 1 {
					break
				}
			}
		}
		switch cnt {
		case 0:
			r := ps.rhs[i]
			switch ps.p.Rows[i].Sense {
			case LE:
				if r < -feasEps {
					return psInfeasible
				}
			case GE:
				if r > feasEps {
					return psInfeasible
				}
			case EQ:
				if math.Abs(r) > feasEps {
					return psInfeasible
				}
			}
			ps.drop(i)
			*changed = true
		case 1:
			if st := ps.singletonRow(i, lastJ, lastA); st != psOK {
				return st
			}
			*changed = true
		}
	}
	return psOK
}

// singletonRow folds row i — a single live coefficient a·x{<=,>=,==}b
// — into the bounds of variable j, then drops the row.
func (ps *presolver) singletonRow(i, j int, a float64) int {
	bb := ps.rhs[i] / a
	sense := ps.p.Rows[i].Sense
	// Dividing by a negative coefficient mirrors the sense.
	if a < 0 && sense != EQ {
		if sense == LE {
			sense = GE
		} else {
			sense = LE
		}
	}
	switch sense {
	case EQ:
		if bb < ps.lo[j]-feasEps || bb > ps.up[j]+feasEps {
			return psInfeasible
		}
		ps.fix(j, clamp(bb, ps.lo[j], ps.up[j]))
		ps.eqRow[j] = i
		ps.boundVar[i] = j
	case LE: // x <= bb
		if bb < ps.up[j] {
			ps.up[j] = bb
			ps.upRow[j] = i
			ps.boundVar[i] = j
		}
	case GE: // x >= bb
		if bb > ps.lo[j] {
			ps.lo[j] = bb
			ps.loRow[j] = i
			ps.boundVar[i] = j
		}
	}
	ps.drop(i)
	if !ps.fixed[j] {
		if ps.lo[j] > ps.up[j]+feasEps {
			return psInfeasible
		}
		if ps.up[j]-ps.lo[j] <= 1e-12 {
			ps.fix(j, ps.lo[j])
		}
	}
	return psOK
}

// colPass fixes empty columns by cost sign (detecting unboundedness)
// and applies the weak domination rule: for maximization, a column
// with c_j <= 0 whose every live coefficient only consumes slack
// (a >= 0 in LE rows, a <= 0 in GE rows, absent from EQ rows) is
// optimally at its lower bound.
func (ps *presolver) colPass(changed *bool) int {
	for j := range ps.fixed {
		if ps.fixed[j] {
			continue
		}
		cnt := 0
		dominated := ps.obj[j] <= 0
		for _, e := range ps.colRows[j] {
			if ps.dropped[e.Var] {
				continue
			}
			cnt++
			switch ps.p.Rows[e.Var].Sense {
			case LE:
				if e.Val < 0 {
					dominated = false
				}
			case GE:
				if e.Val > 0 {
					dominated = false
				}
			case EQ:
				dominated = false
			}
		}
		if cnt == 0 {
			c := ps.obj[j]
			switch {
			case c > costEps:
				if math.IsInf(ps.up[j], 1) {
					// Unbounded ray — but only if the rest is
					// feasible, which presolve cannot decide. Leave
					// the column: phase 1 settles feasibility, then
					// phase 2 reports Unbounded through it.
					continue
				}
				ps.fix(j, ps.up[j])
			default:
				ps.fix(j, ps.lo[j])
			}
			*changed = true
			continue
		}
		if dominated {
			ps.fix(j, ps.lo[j])
			*changed = true
		}
	}
	return psOK
}

// form builds the reduced computational form for the sparse kernel and
// the index maps postsolve needs.
func (ps *presolver) form(f *spForm) {
	n, m := ps.p.NumVars, len(ps.p.Rows)
	ps.redVar = growI(ps.redVar, n)
	ps.redRow = growI(ps.redRow, m)
	ps.origVar = ps.origVar[:0]
	ps.origRow = ps.origRow[:0]
	for j := 0; j < n; j++ {
		ps.redVar[j] = -1
		if !ps.fixed[j] {
			ps.redVar[j] = len(ps.origVar)
			ps.origVar = append(ps.origVar, j)
		}
	}
	for i := 0; i < m; i++ {
		ps.redRow[i] = -1
		if !ps.dropped[i] {
			ps.redRow[i] = len(ps.origRow)
			ps.origRow = append(ps.origRow, i)
		}
	}

	f.n, f.m = len(ps.origVar), len(ps.origRow)
	f.colStart = growI(f.colStart, f.n+1)
	f.rowIdx = f.rowIdx[:0]
	f.val = f.val[:0]
	f.obj = growF(f.obj, f.n)
	f.lo = growF(f.lo, f.n)
	f.up = growF(f.up, f.n)
	f.b = growF(f.b, f.m)
	f.sense = growS(f.sense, f.m)
	for rj, j := range ps.origVar {
		f.colStart[rj] = len(f.rowIdx)
		for _, e := range ps.colRows[j] {
			if ri := ps.redRow[e.Var]; ri >= 0 {
				f.rowIdx = append(f.rowIdx, ri)
				f.val = append(f.val, e.Val)
			}
		}
		f.obj[rj] = ps.obj[j]
		f.lo[rj] = ps.lo[j]
		f.up[rj] = ps.up[j]
	}
	f.colStart[f.n] = len(f.rowIdx)
	for ri, i := range ps.origRow {
		f.b[ri] = ps.rhs[i]
		f.sense[ri] = ps.p.Rows[i].Sense
	}
}

// postsolve maps a reduced-space point and dual vector back to the
// original problem. xr/yr are in reduced indices (yr already has
// logical-basic rows snapped to 0 by the kernel); duals of removed
// singleton rows are recovered from the reduced cost of the variable
// whose bound they produced, so complementary slackness and dual
// feasibility hold for the full original system.
func (ps *presolver) postsolve(xr, yr []float64) (x, y []float64, obj float64) {
	n, m := ps.p.NumVars, len(ps.p.Rows)
	x = make([]float64, n)
	y = make([]float64, m)
	for j := 0; j < n; j++ {
		if ps.fixed[j] {
			x[j] = ps.fixVal[j]
		} else {
			x[j] = xr[ps.redVar[j]]
		}
		obj += ps.obj[j] * x[j]
	}
	for i := 0; i < m; i++ {
		if ri := ps.redRow[i]; ri >= 0 {
			y[i] = yr[ri]
		}
	}

	// Recover duals of removed singleton rows. For variable j whose
	// active bound came from dropped row r with coefficient a, the KKT
	// stationarity condition c_j - sum_i y_i a_ij = 0 gives
	// y_r = d_j / a with d_j the reduced cost of j over the other
	// rows. Rows are processed in reverse drop order: a row dropped
	// late may carry (now-fixed) variables whose own provenance rows
	// dropped earlier, so later rows' duals must be settled first for
	// the earlier reduced costs to price against them. Dropped rows
	// that produced no (surviving) bound keep y = 0 — they were
	// redundant. A variable strictly inside its derived bound leaves
	// the bound row's dual at 0 (complementary slackness).
	for s := len(ps.dropSeq) - 1; s >= 0; s-- {
		r := ps.dropSeq[s]
		j := ps.boundVar[r]
		if j < 0 {
			continue
		}
		// A positive reduced cost is absorbed by the active upper
		// bound's row, a negative one by the active lower bound's row
		// — or by the implicit x >= 0 bound, which needs no dual. A
		// reduced cost of the wrong sign for the only active side is
		// within tolerance of 0 by kernel optimality and stays
		// unassigned.
		switch r {
		case ps.eqRow[j]:
			y[r] = ps.reducedCost(j, y) / ps.coefIn(r, j)
		case ps.upRow[j]:
			if x[j] >= ps.up[j]-1e-7 {
				if d := ps.reducedCost(j, y); d > 0 {
					y[r] = d / ps.coefIn(r, j)
				}
			}
		case ps.loRow[j]:
			if x[j] <= ps.lo[j]+1e-7 {
				if d := ps.reducedCost(j, y); d < 0 {
					y[r] = d / ps.coefIn(r, j)
				}
			}
		}
	}
	return x, y, obj
}

// reducedCost is c_j minus the pricing of column j against y.
func (ps *presolver) reducedCost(j int, y []float64) float64 {
	d := ps.obj[j]
	for _, e := range ps.colRows[j] {
		d -= y[e.Var] * e.Val
	}
	return d
}

// coefIn returns row r's merged coefficient on variable j.
func (ps *presolver) coefIn(r, j int) float64 {
	for _, e := range ps.colRows[j] {
		if e.Var == r {
			return e.Val
		}
	}
	return 1 // unreachable for provenance rows
}

// Reduction reports the presolve shrinkage of the last sparse solve:
// rows and columns removed from the original problem. Zeros when the
// last solve used the dense kernel or was warm-started (warm solves
// skip presolve to keep basis indices stable).
func (w *Workspace) Reduction() (rowsRemoved, colsRemoved int) {
	if w.lastKernel != KernelSparse || w.sps.pre == nil {
		return 0, 0
	}
	ps := w.sps.pre
	return len(ps.p.Rows) - len(ps.origRow), ps.p.NumVars - len(ps.origVar)
}
