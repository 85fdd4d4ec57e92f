package lp

import (
	"context"
	"math"

	"github.com/cloudsched/rasa/internal/solve"
)

// solveSparse runs the sparse kernel end to end: presolve (cold
// solves), simplex phases, postsolve back to original indices, and a
// basis capture in the dense column layout so the handle stays
// interchangeable with the dense kernel. ok=false reports numerical
// breakdown — the caller falls back to the dense tableau, which makes
// no factorization assumptions.
func (w *Workspace) solveSparse(ctx context.Context, p *Problem, opts Options, from *Basis, stats *solve.Stats) (Solution, bool) {
	k := &w.sps
	w.lastKernel = KernelSparse
	k.capOK = false
	k.pre = nil

	if from != nil {
		if sol, final, ok := w.sparseWarm(ctx, p, opts, from, stats); ok {
			return sol, true
		} else if final {
			return sol, false // numerical breakdown mid-warm: dense fallback
		}
		// Basis unusable for the sparse layout: cold sparse below.
	}

	ps := newPresolver(p)
	switch ps.run() {
	case psInfeasible:
		return Solution{Status: Infeasible}, true
	case psUnbounded:
		return Solution{Status: Unbounded}, true
	}
	k.pre = ps
	ps.form(&k.f)
	k.initArrays()
	k.setColdBasis()
	k.computeXB()
	st, cause, feasible, ok := k.phases(ctx, opts, false, stats)
	if !ok {
		return Solution{}, false
	}
	return w.sparseSolution(p, st, cause, feasible, stats), true
}

// sparseWarm attempts a warm sparse solve from a dense-layout basis.
// Returns ok=true with the final solution, or ok=false with
// final=true on numerical breakdown (dense fallback) and final=false
// when the basis does not map (cold sparse path).
func (w *Workspace) sparseWarm(ctx context.Context, p *Problem, opts Options, from *Basis, stats *solve.Stats) (sol Solution, final, ok bool) {
	k := &w.sps
	m := len(p.Rows)
	if from.m != m || from.nStruc > p.NumVars || len(from.cols) != from.m {
		return Solution{}, false, false
	}
	// The captured column indices are only meaningful if the rows still
	// imply the layout they were captured under; a changed row sense
	// shifts every later slack column (and an LE<->EQ change keeps n but
	// swaps a slack for an artificial), which the layout signature
	// detects.
	li := prefixLayout(p, from.nStruc)
	if li.n != from.n || li.sig != from.sig {
		return Solution{}, false, false
	}

	// Warm solves skip presolve: row/column indices must stay aligned
	// with the caller's problem for the basis to mean anything.
	formFromProblem(&k.f, p, k)
	k.initArrays()
	seen := growB(k.bwork, k.ncols)
	k.bwork = seen
	seed := growI(k.iwork, m)
	k.iwork = seed
	for i, c := range from.cols {
		col := c
		if c >= from.nStruc {
			// Shift past appended structural variables by remapping
			// through the owning row's logical.
			if c >= li.n {
				return Solution{}, false, false
			}
			col = k.f.n + li.owner[c]
		}
		if seen[col] {
			return Solution{}, false, false // degenerate capture: two columns, one row
		}
		seen[col] = true
		seed[i] = col
	}
	for i, c := range seed {
		k.basic[i] = c
		k.vstat[c] = spBasic
		k.slot[c] = i
	}
	for _, j := range from.upper {
		if j < from.nStruc && !seen[j] && !math.IsInf(k.tup[j], 1) {
			k.vstat[j] = spNBUpper
		}
	}
	if !k.refactorize() {
		return Solution{}, true, false
	}
	st, cause, feasible, kok := k.phases(ctx, opts, true, stats)
	if !kok {
		return Solution{}, true, false
	}
	return w.sparseSolution(p, st, cause, feasible, stats), false, true
}

// sparseSolution maps the kernel end-state to a Solution in original
// indices and records the basis capture.
func (w *Workspace) sparseSolution(p *Problem, st Status, cause solve.StopCause, feasible bool, stats *solve.Stats) Solution {
	k := &w.sps
	stats.Stop = cause
	sol := Solution{Status: st}
	if st == Infeasible || st == Unbounded || !feasible {
		return sol
	}
	xr := k.point(nil)
	yr := k.dualsReduced()
	if k.pre != nil {
		sol.X, sol.Duals, sol.Objective = k.pre.postsolve(xr, yr)
	} else {
		sol.X, sol.Duals = xr, yr
		for j, c := range k.f.obj {
			sol.Objective += c * xr[j]
		}
	}
	k.buildCapture(p)
	k.captureUpper(p, sol.X)
	return sol
}

// formFromProblem builds the computational form for the verbatim
// problem (warm solves): the problem's own bounds, duplicate
// coefficients merged via the epoch-stamped accumulator.
func formFromProblem(f *spForm, p *Problem, k *spState) {
	m, n := len(p.Rows), p.NumVars
	f.m, f.n = m, n
	f.colStart = growI(f.colStart, n+1)
	f.obj = growF(f.obj, n)
	f.lo = growF(f.lo, n)
	f.up = growF(f.up, n)
	f.b = growF(f.b, m)
	f.sense = growS(f.sense, m)
	for j := 0; j < n; j++ {
		f.lo[j], f.up[j] = p.bound(j)
	}
	for _, c := range p.Objective {
		f.obj[c.Var] += c.Val
	}
	for i, r := range p.Rows {
		f.b[i] = r.RHS
		f.sense[i] = r.Sense
	}

	// Two passes build the CSC columns without per-row allocations:
	// count merged (duplicate-summed) entries per column, prefix-sum,
	// then fill through per-column cursors. The epoch-stamp trick
	// merges duplicate Var entries in O(nnz); a flushed variable's
	// stamp flips to -epoch so each (row, var) pair emits exactly once.
	k.acc = growF(k.acc, n)
	k.stamp = growI(k.stamp, n)
	cursor := growI(k.iwork, n)
	k.iwork = cursor
	for _, r := range p.Rows {
		k.epoch++
		for _, c := range r.Coefs {
			if k.stamp[c.Var] != k.epoch {
				k.stamp[c.Var] = k.epoch
				cursor[c.Var]++
			}
		}
	}
	nnz := 0
	for j := 0; j < n; j++ {
		f.colStart[j] = nnz
		nnz += cursor[j]
		cursor[j] = f.colStart[j]
	}
	f.colStart[n] = nnz
	f.rowIdx = growI(f.rowIdx, nnz)
	f.val = growF(f.val, nnz)
	for i, r := range p.Rows {
		k.epoch++
		for _, c := range r.Coefs {
			if k.stamp[c.Var] != k.epoch && k.stamp[c.Var] != -k.epoch {
				k.stamp[c.Var] = k.epoch
				k.acc[c.Var] = 0
			}
			if k.stamp[c.Var] == k.epoch {
				k.acc[c.Var] += c.Val
			}
		}
		for _, c := range r.Coefs {
			if k.stamp[c.Var] == k.epoch {
				k.stamp[c.Var] = -k.epoch
				t := cursor[c.Var]
				cursor[c.Var]++
				f.rowIdx[t] = i
				f.val[t] = k.acc[c.Var]
			}
		}
	}
}

// buildCapture records the basis of the finished sparse solve as a
// set of dense-layout columns (Workspace.build's column order), so
// the capture warm-starts either kernel. Reduced structural basics map
// to their original indices, basic logicals map to their row's
// slack/surplus/artificial column, and rows presolve removed
// contribute either their slack or — when the row's derived bound is
// active on a nonbasic variable — that variable, reproducing the
// vertex the dense kernel would have ended on.
func (k *spState) buildCapture(p *Problem) {
	li := prefixLayout(p, p.NumVars)
	m := len(p.Rows)
	k.capCols = growI(k.capCols, m)[:0]
	k.capM, k.capNStruc, k.capN, k.capSig = m, p.NumVars, li.n, li.sig
	if k.pre == nil {
		for i := 0; i < m; i++ {
			c := k.basic[i]
			if c >= k.f.n {
				c = li.slack[c-k.f.n]
			}
			k.capCols = append(k.capCols, c)
		}
		k.capOK = true
		return
	}
	ps := k.pre
	for i := 0; i < k.f.m; i++ {
		c := k.basic[i]
		if c < k.f.n {
			k.capCols = append(k.capCols, ps.origVar[c])
		} else {
			k.capCols = append(k.capCols, li.slack[ps.origRow[c-k.f.n]])
		}
	}
	claimed := growB(k.bwork, p.NumVars)
	k.bwork = claimed
	for r := 0; r < m; r++ {
		if !ps.dropped[r] {
			continue
		}
		col := li.slack[r]
		if j := ps.boundVar[r]; j >= 0 && !claimed[j] && k.claimsRow(ps, j, r) {
			col = j
			claimed[j] = true
		}
		k.capCols = append(k.capCols, col)
	}
	k.capOK = true
}

// captureUpper records the structural columns outside capCols that x
// puts at a finite upper bound of p, so a warm start from the capture
// places them there.
func (k *spState) captureUpper(p *Problem, x []float64) {
	k.capUpper = k.capUpper[:0]
	if p.Upper == nil {
		return
	}
	basic := growB(k.bwork, p.NumVars)
	k.bwork = basic
	for _, c := range k.capCols {
		if c < p.NumVars {
			basic[c] = true
		}
	}
	for j := 0; j < p.NumVars; j++ {
		if lo, up := p.bound(j); !basic[j] && up > lo && !math.IsInf(up, 1) && x[j] >= up-1e-9*(1+up) {
			k.capUpper = append(k.capUpper, j)
		}
	}
}

// claimsRow reports whether variable j should stand in as the basic
// column of dropped row r: the row's derived bound (or fixing) is the
// binding constraint on j at the final point.
func (k *spState) claimsRow(ps *presolver, j, r int) bool {
	if ps.eqRow[j] == r {
		return true
	}
	if rj := ps.redVar[j]; rj >= 0 && k.vstat[rj] == spBasic {
		return false // j already accounts for a kept row
	}
	x := ps.fixVal[j]
	if rj := ps.redVar[j]; rj >= 0 {
		x = k.colVal(rj)
	}
	switch r {
	case ps.upRow[j]:
		return x >= ps.up[j]-1e-7
	case ps.loRow[j]:
		return x <= ps.lo[j]+1e-7
	}
	return false
}
