package lp

import (
	"context"
	"math"
	"time"

	"github.com/cloudsched/rasa/internal/solve"
)

// anchor is a copy of the optimal dense tableau of one solve (the root
// relaxation of a branch-and-bound run). SolveNode solves every later
// node of that run from it: a node's parent basis differs from the
// root's optimal basis in a handful of columns, so re-deriving it from
// the anchor takes a few pivots where rebuilding the tableau and
// Gauss-Jordaning the whole basis back in takes one per row.
type anchor struct {
	ok               bool
	m, n, nStruc     int
	nArt             int
	a                []float64 // m*(n+1), stride n+1, as in Workspace.a
	phase2           []float64 // n+1
	basis            []int     // m
	artificial       []bool    // n
	slackCol, colRow []int     // m, n
	slackSign        []float64 // m
}

// Anchor snapshots the tableau of the workspace's most recent solve as
// the anchor for SolveNode and reports whether it could. Only a dense
// solve that ended Optimal leaves a tableau to anchor on; otherwise any
// earlier anchor is dropped and SolveNode declines every node.
func (w *Workspace) Anchor() bool {
	an := &w.anc
	an.ok = w.lastKernel == KernelDense && w.lastStatus == Optimal
	if !an.ok {
		return false
	}
	an.m, an.n, an.nStruc = w.m, w.n, w.nStruc
	an.a = append(an.a[:0], w.a[:w.m*w.stride]...)
	an.phase2 = append(an.phase2[:0], w.phase2[:w.stride]...)
	an.basis = append(an.basis[:0], w.basis[:w.m]...)
	an.artificial = append(an.artificial[:0], w.artificial[:w.n]...)
	an.slackCol = append(an.slackCol[:0], w.slackCol[:w.m]...)
	an.colRow = append(an.colRow[:0], w.colRow[:w.n]...)
	an.slackSign = append(an.slackSign[:0], w.slackSign[:w.m]...)
	an.nArt = 0
	for _, art := range an.artificial {
		if art {
			an.nArt++
		}
	}
	return true
}

// SolveNode solves the anchored problem plus the extra rows,
// re-optimizing from the basis from, which must have been captured on
// the anchored problem plus a prefix of extra (a branch-and-bound
// parent; the extra rows are its branching chain plus the child's
// bound). The result is the one SolveFrom gives on the full problem,
// up to roundoff, and a basis captured after it warm-starts either.
//
// ok=false means the node does not fit the anchored path and the
// caller must use SolveFrom: no anchor; an extra row that is not a
// single-variable LE/GE bound with a non-negative right-hand side; a
// node large enough for the sparse kernel; a basis that does not match
// the node's column layout, is singular on the anchor, or is not dual
// feasible there. No pivot is counted when ok=false.
func (w *Workspace) SolveNode(ctx context.Context, opts Options, extra []Constraint, from *Basis) (Solution, bool) {
	start := time.Now()
	an := &w.anc
	m := an.m + len(extra)
	if !an.ok || from == nil || from.m < an.m || from.m > m || from.nStruc != an.nStruc || len(from.cols) != from.m ||
		kernelFor(opts.Kernel, m, an.nStruc) == KernelSparse {
		return Solution{}, false
	}
	// n and nArt track the column layout of the anchored rows plus
	// extra[:k]; from must have been captured under the layout at
	// k = from.m-an.m.
	n, nArt := an.n, an.nArt
	for k, r := range extra {
		if an.m+k == from.m && (n != from.n || nArt != from.nArt) {
			return Solution{}, false
		}
		if len(r.Coefs) != 1 || r.Sense == EQ || !(r.RHS >= 0) || math.IsInf(r.RHS, 0) {
			return Solution{}, false
		}
		if c := r.Coefs[0]; c.Var < 0 || c.Var >= an.nStruc || c.Val == 0 || math.IsNaN(c.Val) || math.IsInf(c.Val, 0) {
			return Solution{}, false
		}
		n++
		if r.Sense == GE {
			n, nArt = n+1, nArt+1
		}
	}
	if from.m == m && (n != from.n || nArt != from.nArt) {
		return Solution{}, false
	}

	var stats solve.Stats
	finish := func(sol Solution) (Solution, bool) {
		w.lastStatus = sol.Status
		sol.Stats = stats
		sol.Stats.Wall = time.Since(start)
		return sol, true
	}
	if cause, stop := solve.Interrupted(ctx, opts.Deadline); stop {
		stats.Stop = cause
		return finish(Solution{Status: IterLimit})
	}
	w.lastKernel = KernelDense
	w.trackPhase1 = false
	w.widenAnchor(m, n, extra)
	if !w.rebase(from) {
		return Solution{}, false
	}
	sol, ok := w.reoptimize(ctx, opts, &stats)
	if !ok {
		return Solution{}, false
	}
	return finish(sol)
}

// widenAnchor loads the anchor into the workspace at the node's stride
// and appends each extra bound row in tableau form: its slack (LE) or
// surplus and artificial (GE) in the columns build would give them,
// the row negated for GE so the slack or surplus is basic, and the
// anchor's basic value of the bounded variable eliminated. The result
// is canonical for the anchor basis plus the new slacks.
func (w *Workspace) widenAnchor(m, n int, extra []Constraint) {
	an := &w.anc
	w.m, w.n, w.nStruc, w.stride = m, n, an.nStruc, n+1
	w.a = growF(w.a, m*w.stride)
	w.phase2 = growF(w.phase2, w.stride)
	w.basis = growI(w.basis, m)
	w.slackCol = growI(w.slackCol, m)
	w.slackSign = growF(w.slackSign, m)
	w.artificial = growB(w.artificial, n)
	w.colRow = growI(w.colRow, n)
	w.rowOf = growI(w.rowOf, n)

	as := an.n + 1
	for i := 0; i < an.m; i++ {
		row, src := w.row(i), an.a[i*as:(i+1)*as]
		copy(row, src[:an.n])
		row[n] = src[an.n]
	}
	copy(w.phase2, an.phase2[:an.n])
	w.phase2[n] = an.phase2[an.n]
	copy(w.basis, an.basis)
	copy(w.slackCol, an.slackCol)
	copy(w.slackSign, an.slackSign)
	copy(w.artificial, an.artificial)
	copy(w.colRow, an.colRow)
	for j := range w.rowOf {
		w.rowOf[j] = -1
	}
	for i, c := range an.basis {
		w.rowOf[c] = i
	}

	col := an.n
	for k, r := range extra {
		i := an.m + k
		row := w.row(i)
		c := r.Coefs[0]
		sign := 1.0
		if r.Sense == GE {
			sign = -1
		}
		row[c.Var] = sign * c.Val
		row[n] = sign * r.RHS
		row[col] = 1
		w.basis[i], w.rowOf[col] = col, i
		w.slackCol[i], w.slackSign[i], w.colRow[col] = col, -sign, i
		col++
		if r.Sense == GE {
			row[col] = -1
			w.artificial[col], w.colRow[col] = true, i
			col++
		}
		if b := w.rowOf[c.Var]; b >= 0 {
			addScaled(row, w.row(b), -row[c.Var])
			row[c.Var] = 0
		}
	}
}

// rebase pivots the basis from into the widened anchor tableau: each
// target column not yet basic enters in the row, among those whose
// basic column is not a target, with the largest entry. The rows are
// then ordered as canonicalize would leave them (row k holds target
// column k), so the repair that follows breaks exact ties as the
// rebuild path does. Returns false when the target is singular here.
func (w *Workspace) rebase(from *Basis) bool {
	w.target = append(w.target[:0], from.cols...)
	for i := from.m; i < w.m; i++ {
		w.target = append(w.target, w.slackCol[i])
	}
	w.inTarget = growB(w.inTarget, w.n)
	for _, c := range w.target {
		if c < 0 || c >= w.n || w.inTarget[c] {
			return false
		}
		w.inTarget[c] = true
	}
	for _, c := range w.target {
		if w.rowOf[c] >= 0 {
			continue
		}
		best, bestAbs := -1, 1e-7
		for r := 0; r < w.m; r++ {
			if w.inTarget[w.basis[r]] {
				continue
			}
			if v := math.Abs(w.a[r*w.stride+c]); v > bestAbs {
				best, bestAbs = r, v
			}
		}
		if best < 0 {
			return false
		}
		w.rowOf[w.basis[best]] = -1
		w.pivot(best, c)
		w.rowOf[c] = best
	}
	// Every target column is basic now; rowOf becomes its wanted row.
	for k, c := range w.target {
		w.rowOf[c] = k
	}
	for i := 0; i < w.m; i++ {
		for k := w.rowOf[w.basis[i]]; k != i; k = w.rowOf[w.basis[i]] {
			w.swapRows(i, k)
		}
	}
	return true
}
