package lp

import (
	"context"
	"math"
	"time"

	"github.com/cloudsched/rasa/internal/solve"
)

// anchor is a copy of the optimal dense tableau of one solve (the root
// relaxation of a branch-and-bound run), bound state included.
// SolveNode solves every later node of that run from it: a node differs
// from the root only in its variable bounds, so the anchor keeps its
// shape, and the node's parent basis differs from the root's optimal
// basis in a handful of columns. Re-deriving that basis from the anchor
// takes a few pivots where rebuilding the tableau and Gauss-Jordaning
// the whole basis back in takes one per row.
type anchor struct {
	ok               bool
	m, n, nStruc     int
	sig              uint64    // layout signature
	a                []float64 // m*(n+1), stride n+1, as in Workspace.a
	phase2           []float64 // n+1
	basis            []int     // m
	artificial       []bool    // n
	slackCol, colRow []int     // m, n
	slackSign        []float64 // m
	lo, up, ref      []float64 // nStruc
	span             []float64 // n
	comp             []bool    // n
}

// Anchor snapshots the tableau of the workspace's most recent solve as
// the anchor for SolveNode and reports whether it could. Only a solve
// that ended Optimal leaves a tableau to anchor on; otherwise any
// earlier anchor is dropped and SolveNode declines every node.
func (w *Workspace) Anchor() bool {
	an := &w.anc
	an.ok = w.lastStatus == Optimal
	w.live = an.ok
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
	an.lo = append(an.lo[:0], w.lo[:w.nStruc]...)
	an.up = append(an.up[:0], w.up[:w.nStruc]...)
	an.ref = append(an.ref[:0], w.ref[:w.nStruc]...)
	an.span = append(an.span[:0], w.span[:w.n]...)
	an.comp = append(an.comp[:0], w.comp[:w.n]...)
	an.sig = w.sig
	return true
}

// SolveNode solves the anchored problem with its variable bounds
// replaced by lo and up (len NumVars each; +inf in up for no upper
// bound), re-optimizing from the basis from, which must have been
// captured on the anchored problem under any bounds (a branch-and-bound
// parent). The bounds must not cross (lo <= up): a node whose bounds
// cross is infeasible without an LP, and the caller settles it. The
// result is the one SolveFrom gives on the same bounded problem, up to
// roundoff, and a basis captured after it warm-starts either.
//
// The basis is pivoted in from whichever tableau shares more basic
// columns with it: the anchor, or the live tableau the previous Anchor
// or SolveNode left in the workspace (a sibling's or a cousin's end
// state), which also spares the copy of the anchor. Either way the rows
// end in the same order, so a node starts from the same basis.
//
// The returned X and Duals are buffers the workspace owns: they stay
// valid until its next solve, and a caller that keeps them must copy.
//
// ok=false means the caller must use SolveFrom: there is no anchor, or
// from does not fit it (another shape, singular on the anchor, or not
// dual feasible there), and no pivot is counted. Or the dual repair ran
// into its stall backstop (dualRepairLimit): the returned Stats hold the
// pivots it spent, and a SolveFrom from the same basis that follows
// solves the node cold rather than repeat the repair.
func (w *Workspace) SolveNode(ctx context.Context, opts Options, lo, up []float64, from *Basis) (Solution, bool) {
	start := time.Now()
	w.stalled = nil
	an := &w.anc
	if !an.ok || len(lo) != an.nStruc || len(up) != an.nStruc {
		return w.decline()
	}
	var stats solve.Stats
	if cause, stop := solve.Interrupted(ctx, opts.Deadline); stop {
		stats.Stop = cause
		return w.finishNode(Solution{Status: IterLimit}, stats, start)
	}
	if from == nil || from.m != an.m || from.n != an.n || from.nStruc != an.nStruc || from.sig != an.sig || len(from.cols) != from.m {
		return w.decline()
	}
	if !w.markTarget(from) {
		return w.decline()
	}
	w.trackPhase1 = false
	w.fromLive = w.live && w.overlap(w.basis[:w.m]) >= w.overlap(an.basis)
	if w.fromLive {
		w.indexRows()
	} else {
		w.loadAnchor()
	}
	w.live = true
	if !w.rebase(from, &stats) {
		return w.decline()
	}
	w.setBounds(lo, up, from.upper)
	sol, ok := w.reoptimize(ctx, opts, &stats, true)
	if !ok {
		if stats.SimplexIters == 0 {
			return w.decline()
		}
		w.live, w.stalled = false, from
		return Solution{Status: IterLimit, Stats: stats}, false
	}
	return w.finishNode(sol, stats, start)
}

// decline is SolveNode's ok=false: the tableau may be half rebased, so
// it is no longer live.
func (w *Workspace) decline() (Solution, bool) {
	w.live = false
	return Solution{}, false
}

func (w *Workspace) finishNode(sol Solution, stats solve.Stats, start time.Time) (Solution, bool) {
	w.lastStatus = sol.Status
	sol.Stats = stats
	sol.Stats.Wall = time.Since(start)
	return sol, true
}

// overlap counts the columns of basis that markTarget marked.
func (w *Workspace) overlap(basis []int) int {
	k := 0
	for _, c := range basis {
		if w.mark[c] {
			k++
		}
	}
	return k
}

// loadAnchor copies the anchor into the workspace.
func (w *Workspace) loadAnchor() {
	an := &w.anc
	w.m, w.n, w.nStruc, w.stride, w.sig = an.m, an.n, an.nStruc, an.n+1, an.sig
	w.a = append(w.a[:0], an.a...)
	w.phase2 = append(w.phase2[:0], an.phase2...)
	w.basis = append(w.basis[:0], an.basis...)
	w.slackCol = append(w.slackCol[:0], an.slackCol...)
	w.slackSign = append(w.slackSign[:0], an.slackSign...)
	w.artificial = append(w.artificial[:0], an.artificial...)
	w.colRow = append(w.colRow[:0], an.colRow...)
	w.lo = append(w.lo[:0], an.lo...)
	w.up = append(w.up[:0], an.up...)
	w.ref = append(w.ref[:0], an.ref...)
	w.span = append(w.span[:0], an.span...)
	w.comp = append(w.comp[:0], an.comp...)
	w.indexRows()
}

// indexRows points rowOf at the row of every basic column, -1 for the
// nonbasic ones.
func (w *Workspace) indexRows() {
	w.rowOf = growI(w.rowOf, w.n)
	for j := range w.rowOf {
		w.rowOf[j] = -1
	}
	for i, c := range w.basis[:w.m] {
		w.rowOf[c] = i
	}
}

// markTarget marks the columns of from in mark and reports whether they
// are distinct columns of the anchor's layout.
func (w *Workspace) markTarget(from *Basis) bool {
	n := w.anc.n
	w.mark = growB(w.mark, n)
	for _, c := range from.cols {
		if c < 0 || c >= n || w.mark[c] {
			return false
		}
		w.mark[c] = true
	}
	return true
}

// rebase pivots the basis from (marked by markTarget) into the tableau:
// each target column not yet basic enters in the row, among those whose
// basic column is not a target, with the largest entry. The rows are
// then ordered as canonicalize would leave them (row k holds target
// column k), so the repair that follows breaks exact ties as the
// rebuild path does, whichever tableau the pivots started from. On
// return rowOf maps every basic column to its row. Returns false when
// the target is singular here.
func (w *Workspace) rebase(from *Basis, stats *solve.Stats) bool {
	for _, c := range from.cols {
		if w.rowOf[c] >= 0 {
			continue
		}
		best, bestAbs := -1, 1e-7
		for r := 0; r < w.m; r++ {
			if w.mark[w.basis[r]] {
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
		stats.BasisPivots++
		w.rowOf[c] = best
	}
	// Every target column is basic now; rowOf becomes its wanted row.
	for k, c := range from.cols {
		w.rowOf[c] = k
	}
	for i := 0; i < w.m; i++ {
		for k := w.rowOf[w.basis[i]]; k != i; k = w.rowOf[w.basis[i]] {
			w.swapRows(i, k)
		}
	}
	return true
}

// setBounds moves every structural column to the bounds lo, up: a
// nonbasic column to its upper bound when it is in atUpper and that
// bound is finite, to its lower bound otherwise; a basic column keeps
// its complement unless its upper bound became infinite. Only columns
// whose reference point or complement changes cost a rebind.
func (w *Workspace) setBounds(lo, up []float64, atUpper []int) {
	for _, j := range atUpper {
		if j >= 0 && j < w.nStruc {
			w.mark[j] = true // rebase left mark set on basic columns only
		}
	}
	for j := 0; j < w.nStruc; j++ {
		l, u := lo[j], up[j]
		r := w.rowOf[j]
		comp := w.comp[j]
		if r < 0 {
			comp = w.mark[j]
		}
		comp = comp && !math.IsInf(u, 1)
		ref := l
		if comp {
			ref = u
		}
		if comp != w.comp[j] || ref != w.ref[j] {
			w.rebind(j, r, comp, ref)
		}
		w.lo[j], w.up[j], w.span[j] = l, u, u-l
	}
}
