package lp

import (
	"context"
	"math"
	"sync"
	"time"

	"github.com/cloudsched/rasa/internal/solve"
)

// Workspace owns the dense-tableau backing arrays of the simplex engine
// and is reset and reused across solves, so a branch-and-bound run or a
// column-generation loop pays for tableau allocation once instead of at
// every node or master re-solve. The tableau is stored row-major in one
// flat slice (stride n+1, last entry of each row the RHS).
//
// A Workspace additionally supports warm starts: CaptureBasis snapshots
// the optimal basis of the last solve, and SolveFrom re-optimizes a
// related problem from that basis — dual simplex when bounds were
// tightened, primal simplex when columns were added (a
// column-generation master with new patterns) — instead of running the
// full two-phase method from scratch. Anchor and SolveNode (anchor.go)
// go one step further for branch-and-bound: every node is re-optimized
// under its bounds from a kept copy of the root's optimal tableau or
// from the live tableau the previous node left, whichever is nearer to
// its parent's basis, so a node costs the few pivots that separate the
// two bases plus its own repair, not a rebuild of the whole tableau.
// SolveNode's X and Duals are buffers of the workspace, valid until its
// next solve; Solve and SolveFrom return slices of their own.
//
// A Workspace is not safe for concurrent use. Acquire one per goroutine
// (AcquireWorkspace / Release are backed by a sync.Pool, so parallel
// subproblem solves do not contend on a shared tableau).
type Workspace struct {
	m, n, nStruc int    // rows, total columns (excl. RHS), structural vars
	stride       int    // n+1
	sig          uint64 // layout signature of the rows (layoutSig)

	a          []float64 // m*stride flat tableau; a[i*stride+n] is row i's RHS
	phase1     []float64 // phase-1 cost row (cold solves only), len stride
	phase2     []float64 // phase-2 cost row, len stride
	basis      []int     // basis[i] = column basic in row i
	artificial []bool    // artificial columns (blocked outside phase 1)
	slackCol   []int     // per original row: slack/surplus/artificial column for dual reads
	slackSign  []float64 // converts that column's reduced cost into the row's dual
	colRow     []int     // column -> owning row (-1 for structural columns)
	target     []int     // scratch: warm-start target basis
	nz         []int     // scratch: nonzero columns of the pivot row
	rowOf      []int     // scratch (SolveNode): column -> basic row, -1 if nonbasic
	mark       []bool    // scratch: column marks (target basis, at-upper set)

	// Variable bounds (the bounded-variable method). Structural column j
	// is stored as y_j in [0, span[j]] with x_j = ref[j] + y_j, or
	// x_j = ref[j] - y_j when comp[j]: a complemented column measures its
	// distance below the upper bound. A nonbasic column sits at y_j = 0,
	// so at its lower bound, or at its upper one when complemented, and
	// the simplex loops below run on y unchanged apart from the ratio
	// tests, which also stop at span. Logical columns have span +inf and
	// are never complemented.
	lo, up, ref []float64 // per structural column
	span        []float64 // per column
	comp        []bool    // per column

	// trackPhase1 gates phase-1 cost-row maintenance; warm starts never
	// run phase 1 and skip the bookkeeping.
	trackPhase1 bool

	// lastStatus is the status of the most recent solve; it tells
	// Anchor whether an optimal tableau is there to snapshot.
	lastStatus Status
	// anc is the snapshot SolveNode solves branch-and-bound nodes from
	// (anchor.go). live reports that the tableau above is one of the
	// anchored problem, left by Anchor or SolveNode, which the next node
	// may rebase from instead of the anchor; every other solve, a
	// declined node and Release clear it. fromLive records which source
	// the last SolveNode took.
	anc            anchor
	live, fromLive bool
	// xOut and dualOut back the X and Duals of SolveNode's solutions.
	xOut, dualOut []float64
	// stalled is the basis the last SolveNode's dual repair gave up on
	// at its backstop, nil if it did not; the solve that follows clears
	// it, and a SolveFrom from that basis solves cold instead of
	// repeating the repair.
	stalled *Basis
}

// Basis is a snapshot of the simplex basis of a solved tableau, the
// warm-start handle passed back into SolveFrom and SolveNode: the basic
// columns and the nonbasic columns at their upper bound, so a warm
// start lands on the same vertex. It records the column layout at
// capture time so basis columns can be remapped when the follow-up
// problem appends structural variables (CG master).
type Basis struct {
	cols   []int  // basic column of each row (order-insensitive: used as a set)
	upper  []int  // nonbasic structural columns at their upper bound
	m      int    // rows covered
	nStruc int    // structural variables at capture
	n      int    // total columns at capture
	sig    uint64 // layout signature at capture (layout-drift guard)
}

// Rows reports how many constraint rows the basis covers.
func (b *Basis) Rows() int { return b.m }

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// AcquireWorkspace returns a pooled Workspace. Release it when done so
// parallel solvers recycle tableau storage instead of reallocating.
func AcquireWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// maxPooledFloats caps the float64 backing capacity a Released
// workspace may carry into the pool (~8 MiB). One paper-scale solve
// grows a tableau of tens of millions of cells; without the cap a
// single such solve pins that memory for the process lifetime.
const maxPooledFloats = 1 << 20

// Release returns the workspace to the pool. Oversized backing arrays
// are dropped first so one huge solve does not pin O(m·n) storage
// forever. The workspace must not be used after Release.
func (w *Workspace) Release() {
	if w.retainedFloats() > maxPooledFloats {
		*w = Workspace{}
	}
	w.anc.ok, w.live, w.stalled = false, false, nil
	wsPool.Put(w)
}

// retainedFloats is the float64 capacity the workspace would keep
// pooled (the dominant storage; int/bool slices scale with the same
// dimensions and are covered by the same cap).
func (w *Workspace) retainedFloats() int {
	return cap(w.a) + cap(w.phase1) + cap(w.phase2) + cap(w.slackSign) +
		cap(w.lo) + cap(w.up) + cap(w.ref) + cap(w.span) +
		cap(w.anc.a) + cap(w.anc.phase2) + cap(w.anc.slackSign) +
		cap(w.anc.lo) + cap(w.anc.up) + cap(w.anc.ref) + cap(w.anc.span)
}

// CaptureBasis snapshots the basis of the workspace's most recent solve
// into dst (allocated when nil) and returns it. Only meaningful after a
// solve that ended with a usable basis (Optimal, or IterLimit with a
// feasible point).
func (w *Workspace) CaptureBasis(dst *Basis) *Basis {
	if dst == nil {
		dst = &Basis{}
	}
	dst.cols = append(dst.cols[:0], w.basis[:w.m]...)
	dst.m, dst.nStruc, dst.n, dst.sig = w.m, w.nStruc, w.n, w.sig
	w.mark = growB(w.mark, w.n)
	for _, c := range w.basis[:w.m] {
		w.mark[c] = true
	}
	dst.upper = dst.upper[:0]
	for j := 0; j < w.nStruc; j++ {
		if w.comp[j] && !w.mark[j] {
			dst.upper = append(dst.upper, j)
		}
	}
	return dst
}

// row returns the backing slice of tableau row i (including the RHS).
func (w *Workspace) row(i int) []float64 {
	return w.a[i*w.stride : i*w.stride+w.stride : i*w.stride+w.stride]
}

func (w *Workspace) rhs(i int) float64 { return w.a[i*w.stride+w.n] }

// grow returns s resized to length k, reusing capacity when possible
// and zeroing the active region.
func growF(s []float64, k int) []float64 {
	if cap(s) < k {
		return make([]float64, k)
	}
	s = s[:k]
	clear(s)
	return s
}

func growI(s []int, k int) []int {
	if cap(s) < k {
		return make([]int, k)
	}
	s = s[:k]
	clear(s)
	return s
}

func growB(s []bool, k int) []bool {
	if cap(s) < k {
		return make([]bool, k)
	}
	s = s[:k]
	clear(s)
	return s
}

// Solve runs a cold two-phase solve in the workspace, reusing its
// backing arrays. Semantics match the package-level Solve.
func (w *Workspace) Solve(ctx context.Context, p *Problem, opts Options) (Solution, error) {
	return w.solveImpl(ctx, p, opts, nil)
}

// SolveFrom solves p warm-started from a basis captured on a related
// problem: p has the basis's problem's rows, and may append structural
// variables (columns) or change variable bounds. Unsupported or numerically unusable bases fall back to a
// cold solve, so SolveFrom never returns worse answers than Solve —
// warm starts are purely an optimization. Pivots performed on the warm
// path are counted in Stats.WarmPivots (cold-path pivots, including
// fallbacks, in Stats.ColdPivots). Right after a SolveNode whose dual
// repair gave up on from at its stall backstop, SolveFrom from the same
// basis solves cold.
func (w *Workspace) SolveFrom(ctx context.Context, p *Problem, opts Options, from *Basis) (Solution, error) {
	return w.solveImpl(ctx, p, opts, from)
}

func (w *Workspace) solveImpl(ctx context.Context, p *Problem, opts Options, from *Basis) (Solution, error) {
	start := time.Now()
	w.live = false // whatever follows, the tableau is not the anchored problem's
	if from == w.stalled {
		from = nil // the repair from it just stalled: do not repeat it
	}
	w.stalled = nil
	if err := validate(p); err != nil {
		return Solution{}, err
	}
	var stats solve.Stats
	finish := func(sol Solution) (Solution, error) {
		w.lastStatus = sol.Status
		sol.Stats = stats
		sol.Stats.Wall = time.Since(start)
		return sol, nil
	}
	// An already-expired budget never gets a pivot: the caller's anytime
	// fallback (greedy rounding, spill fill) is strictly cheaper.
	if cause, stop := solve.Interrupted(ctx, opts.Deadline); stop {
		stats.Stop = cause
		return finish(Solution{Status: IterLimit})
	}
	if from != nil {
		if sol, ok := w.solveWarm(ctx, p, opts, from, &stats); ok {
			return finish(sol)
		}
		// Basis unusable (layout drift, singular, or infeasible start),
		// or its dual repair stalled: fall through to the cold path
		// below, on the pivot budget the repair left.
	}

	w.trackPhase1 = true
	w.build(p)
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 200 * (w.m + w.n + 10)
	}
	// MaxIter is a total pivot budget across phases (and across a warm
	// attempt that gave up after spending pivots), not a per-phase
	// allowance.

	// Phase 1: drive artificials to zero.
	st, cause := w.iterate(ctx, w.phase1, maxIter-stats.SimplexIters, opts.Deadline, true, false, &stats)
	if st == IterLimit {
		stats.Stop = cause
		return finish(Solution{Status: IterLimit})
	}
	// Phase-1 objective is -(sum of artificials); feasible iff it reached ~0.
	if -w.phase1[w.n] < -feasEps {
		return finish(Solution{Status: Infeasible})
	}
	w.expelArtificials()

	// Phase 2: original objective, on whatever budget phase 1 left.
	st, cause = w.iterate(ctx, w.phase2, maxIter-stats.SimplexIters, opts.Deadline, false, false, &stats)
	if st == Unbounded {
		return finish(Solution{Status: Unbounded})
	}
	stats.Stop = cause
	// Optimal, or IterLimit with a feasible basic point: report it either way.
	return finish(w.extract(st, false))
}

// extract reads the solution (point, objective, duals) off the tableau,
// into the workspace's xOut and dualOut when buf, else into new slices.
func (w *Workspace) extract(st Status, buf bool) Solution {
	sol := Solution{Status: st}
	if buf {
		w.xOut = growF(w.xOut, w.nStruc)
		w.dualOut = growF(w.dualOut, w.m)
		sol.X, sol.Duals = w.xOut, w.dualOut
	} else {
		sol.X, sol.Duals = make([]float64, w.nStruc), make([]float64, w.m)
	}
	copy(sol.X, w.ref[:w.nStruc])
	for i := 0; i < w.m; i++ {
		if c := w.basis[i]; c < w.nStruc {
			if w.comp[c] {
				sol.X[c] -= w.rhs(i)
			} else {
				sol.X[c] += w.rhs(i)
			}
		}
	}
	sol.Objective = -w.phase2[w.n]
	w.duals(sol.Duals)
	return sol
}

// build constructs the initial tableau. Columns are laid out
// structural-first, then per row in row order: a slack (LE) or surplus
// plus artificial (GE) or artificial (EQ). Every structural column starts nonbasic at its lower bound, so each
// row is normalized by the sign of its right-hand side with those
// lower bounds moved across (effRHS).
func (w *Workspace) build(p *Problem) {
	m := len(p.Rows)
	nStruc := p.NumVars
	n := nStruc
	w.sig = sigSeed
	for _, r := range p.Rows {
		s := normSense(r.Sense, effRHS(p, r))
		w.sig = layoutSig(w.sig, s)
		switch s {
		case LE:
			n++
		case GE:
			n += 2
		case EQ:
			n++
		}
	}

	w.m, w.n, w.nStruc, w.stride = m, n, nStruc, n+1
	w.a = growF(w.a, m*w.stride)
	w.phase1 = growF(w.phase1, w.stride)
	w.phase2 = growF(w.phase2, w.stride)
	w.basis = growI(w.basis, m)
	w.slackCol = growI(w.slackCol, m)
	w.slackSign = growF(w.slackSign, m)
	w.artificial = growB(w.artificial, n)
	w.colRow = growI(w.colRow, n)
	w.lo = growF(w.lo, nStruc)
	w.up = growF(w.up, nStruc)
	w.ref = growF(w.ref, nStruc)
	w.span = growF(w.span, n)
	w.comp = growB(w.comp, n)
	for j := 0; j < nStruc; j++ {
		w.colRow[j] = -1
		lo, up := p.bound(j)
		w.lo[j], w.up[j], w.ref[j], w.span[j] = lo, up, lo, up-lo
	}
	for j := nStruc; j < n; j++ {
		w.span[j] = math.Inf(1)
	}

	for _, c := range p.Objective {
		w.phase2[c.Var] += c.Val
		if p.Lower != nil {
			w.phase2[n] -= c.Val * p.Lower[c.Var] // -c'lo: the objective at the start
		}
	}
	col := nStruc
	for i, r := range p.Rows {
		row := w.row(i)
		rhs := effRHS(p, r)
		sign := 1.0
		if rhs < 0 {
			sign = -1.0
		}
		for _, c := range r.Coefs {
			row[c.Var] += sign * c.Val
		}
		row[n] = sign * rhs
		switch normSense(r.Sense, rhs) {
		case LE:
			row[col] = 1
			w.basis[i] = col
			w.slackCol[i] = col
			w.slackSign[i] = -sign // dual = -reducedCost(slack), flipped rows negate
			w.colRow[col] = i
			col++
		case GE:
			row[col] = -1
			w.slackCol[i] = col
			w.slackSign[i] = sign // dual = +reducedCost(surplus)
			w.colRow[col] = i
			col++
			row[col] = 1
			w.basis[i] = col
			w.artificial[col] = true
			w.colRow[col] = i
			col++
		case EQ:
			row[col] = 1
			w.basis[i] = col
			w.artificial[col] = true
			// dual read from the artificial column: dual = -reducedCost.
			w.slackCol[i] = col
			w.slackSign[i] = -sign
			w.colRow[col] = i
			col++
		}
	}
	if w.trackPhase1 {
		// Phase-1 objective: maximize -(sum of artificials). Canonicalize
		// by adding each artificial-basic row into the cost row.
		for j := nStruc; j < n; j++ {
			if w.artificial[j] {
				w.phase1[j] = -1
			}
		}
		for i := 0; i < m; i++ {
			if w.artificial[w.basis[i]] {
				addScaled(w.phase1, w.row(i), 1)
			}
		}
	}
}

// effRHS is row r's right-hand side with every variable at its lower
// bound moved across: the value the row's logical starts at.
func effRHS(p *Problem, r Constraint) float64 {
	rhs := r.RHS
	if p.Lower != nil {
		for _, c := range r.Coefs {
			rhs -= c.Val * p.Lower[c.Var]
		}
	}
	return rhs
}

// normSense is the sense of a row with effective right-hand side rhs
// after sign normalization (rows with negative rhs are negated at build
// time, mirroring LE<->GE).
func normSense(s Sense, rhs float64) Sense {
	if rhs < 0 && s != EQ {
		if s == LE {
			return GE
		}
		return LE
	}
	return s
}

// solveWarm attempts the warm-started solve. ok=false means the basis
// was unusable and the caller must run the cold path; ok=true means the
// returned Solution is final (any Status).
func (w *Workspace) solveWarm(ctx context.Context, p *Problem, opts Options, from *Basis, stats *solve.Stats) (Solution, bool) {
	if from == nil || from.m != len(p.Rows) || from.nStruc > p.NumVars || len(from.cols) != from.m {
		return Solution{}, false
	}
	// The captured column indices are positional: they are only
	// meaningful if the rows still imply the layout they were captured
	// under. A changed row sense (or a lower bound that flips the sign
	// of a row's effective right-hand side) shifts every later
	// slack/surplus column (LE<->GE changes the column count; LE<->EQ
	// keeps it but swaps a slack for an artificial), and a drifted basis
	// would canonicalize into the wrong columns. The layout signature
	// detects both drifts.
	if n, sig := prefixLayout(p, from.nStruc); n != from.n || sig != from.sig {
		return Solution{}, false
	}
	w.trackPhase1 = false
	w.build(p)

	// Target basis: the captured basis with non-structural columns
	// shifted past any appended structural variables.
	shift := p.NumVars - from.nStruc
	w.target = w.target[:0]
	for _, c := range from.cols {
		if c >= from.nStruc {
			c += shift
		}
		if c < 0 || c >= w.n {
			return Solution{}, false
		}
		w.target = append(w.target, c)
	}
	// Nonbasic columns the capture left at their upper bound start there.
	if len(from.upper) > 0 {
		w.mark = growB(w.mark, w.n)
		for _, c := range w.target {
			w.mark[c] = true
		}
		for _, j := range from.upper {
			if j < from.nStruc && !w.mark[j] && !math.IsInf(w.up[j], 1) {
				w.rebind(j, -1, true, w.up[j])
			}
		}
	}
	if !w.canonicalize(w.target, stats) {
		return Solution{}, false
	}
	return w.reoptimize(ctx, opts, stats, false)
}

var (
	// dualRepairLimit is the stall backstop of a warm dual repair on an
	// m×n tableau. A parent's basis sits a few pivots from its child's
	// optimum; a repair that runs past this many is cycling through
	// degenerate ties, so the warm start gives up and the caller solves
	// cold. A test shrinks it to drive every repair into the fallback.
	dualRepairLimit = func(m, n int) int { return 2 * (m + n) }
	// dualRepaired, when set, sees the pivots and the limit of every
	// dual repair; tests watch the backstop with it.
	dualRepaired func(pivots, limit int)
)

// reoptimize finishes a warm solve from a canonical tableau whose
// basis came from a related problem: dual simplex repair when the basis
// is primal infeasible (a tightened bound), then primal polish.
// ok=false means the caller must take a colder path: the basis is not
// dual feasible either (or keeps an artificial away from 0), so neither
// simplex applies and no pivot has been spent; or the dual repair ran
// into dualRepairLimit, and stats holds the pivots it spent. buf
// selects extract's output buffers.
func (w *Workspace) reoptimize(ctx context.Context, opts Options, stats *solve.Stats, buf bool) (Solution, bool) {
	// MaxIter is a total budget: the dual repair and the primal polish
	// share it.
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 200 * (w.m + w.n + 10)
	}

	primalFeasible := true
	for i := 0; i < w.m; i++ {
		if w.artificial[w.basis[i]] && math.Abs(w.rhs(i)) > feasEps {
			// The basis keeps an artificial away from 0: it does not fit
			// this problem's right-hand sides, and no simplex here repairs
			// that.
			return Solution{}, false
		}
	}
	for i := 0; i < w.m; i++ {
		if v := w.rhs(i); v < -feasEps || v > w.span[w.basis[i]]+feasEps {
			primalFeasible = false
			break
		}
	}
	if !primalFeasible {
		// The basis must at least be dual feasible for the dual simplex
		// to repair it; a parent's optimal basis always is, so a failure
		// here means the basis does not fit this problem — punt to a
		// colder path. Basic columns read exactly 0 in a canonical
		// tableau, so one sweep suffices; fixed columns never move.
		for j := 0; j < w.n; j++ {
			if !w.artificial[j] && w.span[j] != 0 && w.phase2[j] > 10*costEps {
				return Solution{}, false
			}
		}
		budget := maxIter - stats.SimplexIters
		limit := dualRepairLimit(w.m, w.n)
		before := stats.SimplexIters
		st, cause := w.dualIterate(ctx, min(limit, budget), opts.Deadline, stats)
		if dualRepaired != nil {
			dualRepaired(stats.SimplexIters-before, limit)
		}
		switch st {
		case Infeasible:
			return Solution{Status: Infeasible}, true
		case IterLimit:
			if cause == solve.NodeLimit && limit < budget {
				return Solution{}, false // stalled: give up the warm start
			}
			// Interrupted before regaining feasibility: no basic feasible
			// point to report.
			stats.Stop = cause
			return Solution{Status: IterLimit}, true
		}
	}
	// Primal-feasible basis: finish (or polish) with warm primal pivots
	// on whatever budget the dual repair left.
	st, cause := w.iterate(ctx, w.phase2, maxIter-stats.SimplexIters, opts.Deadline, false, true, stats)
	if st == Unbounded {
		return Solution{Status: Unbounded}, true
	}
	stats.Stop = cause
	return w.extract(st, buf), true
}

// canonicalize runs Gauss-Jordan elimination driving the target columns
// into the basis (partial pivoting over rows, so the row<->basis-column
// pairing is re-derived rather than trusted). Returns false when the
// target set is singular for this tableau. A target column that is
// already basic (a slack of the freshly built tableau) is a unit column,
// so pivoting on it would change nothing: its row is only moved into
// place. The pivots are counted in stats.BasisPivots.
func (w *Workspace) canonicalize(target []int, stats *solve.Stats) bool {
	if len(target) != w.m {
		return false
	}
	for k, c := range target {
		if r := w.basicRow(c, k); r >= 0 {
			if r != k {
				w.swapRows(k, r)
			}
			continue
		}
		best := -1
		bestAbs := 1e-7
		for r := k; r < w.m; r++ {
			if v := math.Abs(w.a[r*w.stride+c]); v > bestAbs {
				best, bestAbs = r, v
			}
		}
		if best < 0 {
			return false
		}
		if best != k {
			w.swapRows(k, best)
		}
		w.pivot(k, c)
		stats.BasisPivots++
	}
	return true
}

// basicRow is the row at or after row k whose basic column is c, -1 if
// there is none.
func (w *Workspace) basicRow(c, k int) int {
	for r := k; r < w.m; r++ {
		if w.basis[r] == c {
			return r
		}
	}
	return -1
}

// swapRows exchanges tableau rows i and k with their basic columns.
func (w *Workspace) swapRows(i, k int) {
	ri, rk := w.row(i), w.row(k)
	for j := range ri {
		ri[j], rk[j] = rk[j], ri[j]
	}
	w.basis[i], w.basis[k] = w.basis[k], w.basis[i]
}

// iterate runs primal simplex pivots against the given cost row until
// optimality, unboundedness, cancellation, or a budget is hit. The
// entering rule is Dantzig pricing with an anti-cycling guard: a run of
// degenerate pivots (no objective progress) switches to Bland's rule,
// and the first strict improvement switches back, so one degenerate
// stretch does not condemn the rest of the solve to Bland's slow
// convergence. The second return value is the stop cause when the
// status is IterLimit or Optimal.
func (w *Workspace) iterate(ctx context.Context, cost []float64, maxIter int, deadline time.Time, phase1, warm bool, stats *solve.Stats) (Status, solve.StopCause) {
	bland := false
	stall := 0
	// degenerateRunLimit is how many pivots may pass without objective
	// progress before cycling is suspected. Beale's example cycles in
	// runs of 6; real degenerate-but-acyclic stretches scale with the
	// basis size, hence the m-dependent slack.
	degenerateRunLimit := w.m + 6
	lastObj := math.Inf(-1)
	poll := solve.NewPoll(ctx, deadline, 0)
	for iter := 0; iter < maxIter; iter++ {
		if cause, stop := poll.Interrupted(); stop {
			return IterLimit, cause
		}
		enter := w.chooseEntering(cost, bland, phase1)
		if enter < 0 {
			return Optimal, solve.Optimal
		}
		leave, toUpper, ratio := w.chooseLeaving(enter)
		switch {
		case w.span[enter] < ratio-1e-12:
			// Bound flip: the entering column reaches its other bound
			// before any basic variable reaches one; the basis stays.
			w.rebind(enter, -1, !w.comp[enter], w.otherBound(enter))
		case leave < 0:
			if phase1 {
				// Phase-1 objective is bounded above by 0; an unbounded
				// direction indicates numerical trouble; treat current
				// point as optimal for the phase.
				return Optimal, solve.Optimal
			}
			return Unbounded, solve.None
		default:
			if toUpper {
				// The leaving variable stops at its upper bound: complement
				// it so it leaves at y = 0 like any other.
				b := w.basis[leave]
				w.rebind(b, leave, !w.comp[b], w.otherBound(b))
			}
			w.pivot(leave, enter)
		}
		w.countPivot(warm, stats)

		obj := -cost[w.n]
		if obj <= lastObj+1e-12 {
			stall++
			if stall >= degenerateRunLimit {
				bland = true // suspected cycling: switch to Bland's rule
			}
		} else {
			bland = false // progress resumed: back to Dantzig pricing
			stall = 0
			lastObj = obj
		}
	}
	return IterLimit, solve.NodeLimit
}

// dualIterate runs dual simplex pivots from a dual-feasible basis until
// primal feasibility (then Optimal is left to the primal polish),
// proven primal infeasibility, or a budget/cancellation stop. It is the
// warm-start engine for branch-and-bound children: the one tightened
// bound puts a single basic variable of the parent basis outside its
// bounds, and a handful of dual pivots restores it.
func (w *Workspace) dualIterate(ctx context.Context, maxIter int, deadline time.Time, stats *solve.Stats) (Status, solve.StopCause) {
	poll := solve.NewPoll(ctx, deadline, 0)
	for iter := 0; iter < maxIter; iter++ {
		if cause, stop := poll.Interrupted(); stop {
			return IterLimit, cause
		}
		// Leaving row: the basic variable furthest outside its bounds.
		// Rows kept by a basic artificial are redundant (~0) and are
		// never selected.
		leave := -1
		worst := feasEps
		for i := 0; i < w.m; i++ {
			b := w.basis[i]
			if w.artificial[b] {
				continue
			}
			v := w.rhs(i)
			viol := -v
			if over := v - w.span[b]; over > viol {
				viol = over
			}
			if viol > worst {
				leave, worst = i, viol
			}
		}
		if leave < 0 {
			return Optimal, solve.Optimal // primal feasible again
		}
		if b := w.basis[leave]; w.rhs(leave) > 0 {
			// Above its upper bound: complemented, it reads below 0 and
			// leaves at that bound.
			w.rebind(b, leave, !w.comp[b], w.otherBound(b))
		}
		// Entering column: dual ratio test over negative row entries,
		// ties to the lowest index (Bland-safe). Fixed columns cannot
		// move and never enter.
		row := w.row(leave)
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < w.n; j++ {
			if w.artificial[j] || w.span[j] == 0 {
				continue
			}
			aj := row[j]
			if aj >= -pivotEps {
				continue
			}
			ratio := w.phase2[j] / aj // both <= 0: ratio >= 0
			if ratio < bestRatio-1e-12 {
				enter, bestRatio = j, ratio
			}
		}
		if enter < 0 {
			// The row reads sum(a_j x_j) = b < 0 with every usable a_j >= 0
			// over x >= 0: primal infeasible.
			return Infeasible, solve.None
		}
		w.pivot(leave, enter)
		w.countPivot(true, stats)
	}
	return IterLimit, solve.NodeLimit
}

func (w *Workspace) countPivot(warm bool, stats *solve.Stats) {
	stats.SimplexIters++
	if warm {
		stats.WarmPivots++
	} else {
		stats.ColdPivots++
	}
}

// chooseEntering picks the entering column: Dantzig (most positive
// reduced cost) or Bland (lowest index with positive reduced cost).
// Artificial columns never re-enter outside phase 1, and fixed columns
// never enter.
func (w *Workspace) chooseEntering(cost []float64, bland, phase1 bool) int {
	best := -1
	bestVal := costEps
	for j := 0; j < w.n; j++ {
		if (!phase1 && w.artificial[j]) || w.span[j] == 0 {
			continue
		}
		c := cost[j]
		if c > bestVal {
			if bland {
				return j
			}
			best, bestVal = j, c
		}
	}
	return best
}

// chooseLeaving runs the minimum-ratio test on column enter, breaking
// ties by the smallest basis column index (lexicographic, Bland-safe).
// A basic variable limits the step at 0 (a positive entry) or at its
// span (a negative one; toUpper reports that case). ratio is the step,
// +inf when no row limits it.
func (w *Workspace) chooseLeaving(enter int) (best int, toUpper bool, bestRatio float64) {
	best, bestRatio = -1, math.Inf(1)
	for i := 0; i < w.m; i++ {
		a := w.a[i*w.stride+enter]
		var ratio float64
		up := false
		switch {
		case a > pivotEps:
			ratio = w.rhs(i) / a
		case a < -pivotEps && !math.IsInf(w.span[w.basis[i]], 1):
			ratio, up = (w.span[w.basis[i]]-w.rhs(i))/-a, true
		default:
			continue
		}
		if ratio < bestRatio-1e-12 || (ratio < bestRatio+1e-12 && (best < 0 || w.basis[i] < w.basis[best])) {
			best, bestRatio, toUpper = i, ratio, up
		}
	}
	return best, toUpper, bestRatio
}

// otherBound is the bound structural column j moves to when its
// complement flips.
func (w *Workspace) otherBound(j int) float64 {
	if w.comp[j] {
		return w.lo[j]
	}
	return w.up[j]
}

// rebind re-expresses structural column j, basic in row r (-1 when
// nonbasic), as x_j = ref + y_j, or x_j = ref - y_j when comp. The
// right-hand sides and the objective absorb the move of the reference
// point. Flipping the complement negates the column, and for a basic
// column its row too, so the basic entry stays +1. A rebind is a bound
// flip of a nonbasic column, the complement of a basic variable that
// leaves at its upper bound, or a branch-and-bound bound change.
func (w *Workspace) rebind(j, r int, comp bool, ref float64) {
	d := ref - w.ref[j]
	if w.comp[j] {
		d = -d
	}
	flip := comp != w.comp[j]
	w.comp[j], w.ref[j] = comp, ref
	if r >= 0 {
		row := w.row(r)
		row[w.n] -= d
		if flip {
			for k, v := range row {
				row[k] = -v
			}
			row[j] = 1
		}
		return
	}
	for i := 0; i < w.m; i++ {
		shiftCol(w.row(i), j, w.n, d, flip)
	}
	if w.trackPhase1 {
		shiftCol(w.phase1, j, w.n, d, flip)
	}
	shiftCol(w.phase2, j, w.n, d, flip)
}

// shiftCol is rebind's update of one tableau or cost row for a nonbasic
// column j: the move d times the entry comes off the right-hand side
// (column n), and a flip negates the entry.
func shiftCol(row []float64, j, n int, d float64, flip bool) {
	if f := row[j]; f != 0 {
		row[n] -= d * f
		if flip {
			row[j] = -f
		}
	}
}

func (w *Workspace) pivot(leave, enter int) {
	prow := w.row(leave)
	inv := 1 / prow[enter]
	// Tableau rows are mostly zeros, so the updates below walk only the
	// pivot row's nonzeros; a skipped zero term would have left its
	// entry unchanged, so the result is the same as a dense update.
	nz := w.nz[:0]
	for j, v := range prow {
		if v != 0 {
			prow[j] = v * inv
			nz = append(nz, j)
		}
	}
	w.nz = nz
	prow[enter] = 1 // kill round-off on the pivot element itself
	for i := 0; i < w.m; i++ {
		if i == leave {
			continue
		}
		r := w.row(i)
		if f := r[enter]; f != 0 {
			addScaledAt(r, prow, nz, -f)
			r[enter] = 0
		}
	}
	if w.trackPhase1 {
		if f := w.phase1[enter]; f != 0 {
			addScaledAt(w.phase1, prow, nz, -f)
			w.phase1[enter] = 0
		}
	}
	if f := w.phase2[enter]; f != 0 {
		addScaledAt(w.phase2, prow, nz, -f)
		w.phase2[enter] = 0
	}
	w.basis[leave] = enter
}

func addScaled(dst, src []float64, k float64) {
	_ = src[len(dst)-1]
	for j := range dst {
		dst[j] += k * src[j]
	}
}

// addScaledAt is addScaled restricted to the columns idx, where src is
// zero everywhere else.
func addScaledAt(dst, src []float64, idx []int, k float64) {
	for _, j := range idx {
		dst[j] += k * src[j]
	}
}

// expelArtificials pivots zero-valued artificial variables out of the
// basis after phase 1 where possible; rows where no pivot exists are
// redundant and are neutralized.
func (w *Workspace) expelArtificials() {
	for i := 0; i < w.m; i++ {
		if !w.artificial[w.basis[i]] {
			continue
		}
		// Artificial basic at (numerically) zero: find any usable
		// non-artificial pivot in this row.
		row := w.row(i)
		for j := 0; j < w.n; j++ {
			if w.artificial[j] {
				continue
			}
			if math.Abs(row[j]) > 1e-7 {
				w.pivot(i, j)
				break
			}
		}
		// If none found the row is linearly dependent; the artificial
		// stays basic at zero, which is harmless because artificial
		// columns never re-enter and the row's RHS is ~0.
	}
}

// duals writes into out (len m) the dual value of each original row,
// read from the reduced cost of its slack/surplus/artificial column in
// the final phase-2 cost row.
// Rows whose artificial is still basic are linearly dependent on the
// rest of the system: the basis prices their constraint through the
// rows they depend on, so the only consistent dual for the redundant
// copy is exactly 0 — the raw column read would hand CG pricing roundoff
// noise at the reduced-cost tolerance instead.
func (w *Workspace) duals(out []float64) {
	for i := 0; i < w.m; i++ {
		out[i] = w.slackSign[i] * w.phase2[w.slackCol[i]]
	}
	for i := 0; i < w.m; i++ {
		if b := w.basis[i]; w.artificial[b] {
			if r := w.colRow[b]; r >= 0 {
				out[r] = 0
			}
		}
	}
}
