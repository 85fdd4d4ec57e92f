package lp

import (
	"context"
	"math"
	"sort"

	"github.com/cloudsched/rasa/internal/solve"
)

// This file implements the sparse revised-simplex kernel. Where the
// dense kernel updates an m×n tableau on every pivot, the revised
// method keeps the constraint matrix in CSC form, represents the basis
// inverse as a product-form eta file (refactorized periodically), and
// recomputes what it needs per iteration with one BTRAN (pricing) and
// one FTRAN (column update) — O(nnz + m·etas) per pivot instead of
// O(m·n).
//
// The computational form is bounded-variable:
//
//	maximize    c'x
//	subject to  A x + s = b,   lo <= x <= up,   s_i in S(sense_i)
//
// with one logical s_i per row: [0,+inf) for LE, (-inf,0] for GE,
// [0,0] for EQ. There are no artificial columns and no RHS-sign
// normalization; phase 1 instead relaxes the working bounds of
// infeasible basic variables and prices a ±1 composite cost that
// drives them back inside (bound shifting), so duals come out directly
// in the original row orientation, matching the dense kernel's
// convention. Bounds absorbed from singleton rows by presolve
// (assignment-style x <= u) never appear as rows here — the ratio test
// honours them as simple bound limits, including bound-flip steps that
// involve no basis change at all.

// inf is the bound value for "unbounded on this side".
var inf = math.Inf(1)

// Variable statuses.
const (
	spNBLower int8 = iota // nonbasic at working lower bound
	spNBUpper             // nonbasic at working upper bound
	spBasic
)

const (
	// refactorEvery bounds the eta file between refactorizations: FTRAN
	// and BTRAN cost grows linearly with the file, and round-off
	// accumulates with it.
	refactorEvery = 64
	// etaDropTol drops negligible entries when an eta column is filed.
	etaDropTol = 1e-12
	// refacPivTol is the minimum acceptable pivot during
	// refactorization; columns that cannot produce one are dependent
	// and are expelled from the basis (mirroring expelArtificials).
	refacPivTol = 1e-8
	// ratioTie is the tie window of the ratio test.
	ratioTie = 1e-12
	// spRestartLimit bounds phase-2 -> phase-1 bounces after a
	// refactorization repair perturbs feasibility.
	spRestartLimit = 3
)

// spOutcome is the result of one simplex phase.
type spOutcome int

const (
	spOptimal  spOutcome = iota // priced optimal for the current cost
	spFeasible                  // phase 1 cleared every infeasibility
	spUnbounded
	spIterLimit
	spRestart // refactorization repair broke phase-2 feasibility
	spFail    // numerical breakdown: caller falls back to dense
)

// spForm is the reduced computational form (post-presolve for cold
// solves, the verbatim problem for warm ones).
type spForm struct {
	m, n     int // rows, structural columns
	colStart []int
	rowIdx   []int
	val      []float64
	obj      []float64
	b        []float64
	sense    []Sense
	lo, up   []float64 // structural bounds
}

// scatterCol writes column j (structural CSC column or logical unit
// column) into the zeroed dense vector v.
func (f *spForm) scatterCol(j int, v []float64) {
	if j < f.n {
		for t := f.colStart[j]; t < f.colStart[j+1]; t++ {
			v[f.rowIdx[t]] = f.val[t]
		}
		return
	}
	v[j-f.n] = 1
}

// spState is the sparse kernel's working state, embedded in Workspace
// so backing arrays are pooled and reused across solves exactly like
// the dense tableau.
type spState struct {
	f   spForm
	pre *presolver // set on cold solves; nil on warm (presolve skipped)

	ncols    int       // f.n + f.m
	tlo, tup []float64 // true bounds per column
	wlo, wup []float64 // working bounds (phase-1 relaxation)
	cost     []float64 // active cost row (phase-1 composite or objective)
	vstat    []int8
	basic    []int // per row slot: basic column
	slot     []int // per column: row slot when basic, else -1
	xB       []float64
	relaxed  []int // columns with relaxed working bounds
	inPhase1 bool

	// Product-form eta file. Eta e transforms v by
	// v[piv] /= pivVal; v[i] -= val[t]*v[piv] for the filed entries.
	etaPiv    []int
	etaPivVal []float64
	etaStart  []int
	etaIdx    []int
	etaVal    []float64
	etaBase   int // eta count right after the last refactorization

	alpha, y []float64 // dense scratch, len m
	iwork    []int
	bwork    []bool

	// Duplicate-coefficient merge scratch for warm form building.
	acc   []float64
	stamp []int
	epoch int

	// Basis capture in the dense column layout (see buildCapture).
	capCols               []int
	capUpper              []int // nonbasic structurals at their upper bound
	capM, capNStruc, capN int
	capSig                uint64
	capOK                 bool
}

func growI8(s []int8, k int) []int8 {
	if cap(s) < k {
		return make([]int8, k)
	}
	s = s[:k]
	clear(s)
	return s
}

func growS(s []Sense, k int) []Sense {
	if cap(s) < k {
		return make([]Sense, k)
	}
	s = s[:k]
	clear(s)
	return s
}

// retainedFloats reports the float64 backing capacity held by the
// state, for the pool-retention cap.
func (k *spState) retainedFloats() int {
	return cap(k.f.val) + cap(k.f.obj) + cap(k.f.b) + cap(k.f.lo) + cap(k.f.up) +
		cap(k.tlo) + cap(k.tup) + cap(k.wlo) + cap(k.wup) + cap(k.cost) +
		cap(k.xB) + cap(k.etaPivVal) + cap(k.etaVal) + cap(k.alpha) + cap(k.y) +
		cap(k.acc)
}

// logicalBounds is the bound interval encoding a row sense.
func logicalBounds(s Sense) (lo, up float64) {
	switch s {
	case LE:
		return 0, math.Inf(1)
	case GE:
		return math.Inf(-1), 0
	default: // EQ
		return 0, 0
	}
}

// initArrays sizes the per-column state for the current form.
func (k *spState) initArrays() {
	f := &k.f
	nc := f.n + f.m
	k.ncols = nc
	k.tlo = growF(k.tlo, nc)
	k.tup = growF(k.tup, nc)
	k.wlo = growF(k.wlo, nc)
	k.wup = growF(k.wup, nc)
	k.cost = growF(k.cost, nc)
	k.vstat = growI8(k.vstat, nc)
	k.slot = growI(k.slot, nc)
	k.basic = growI(k.basic, f.m)
	k.xB = growF(k.xB, f.m)
	k.alpha = growF(k.alpha, f.m)
	k.y = growF(k.y, f.m)
	k.relaxed = k.relaxed[:0]
	k.resetEtas()
	for j := 0; j < f.n; j++ {
		k.tlo[j], k.tup[j] = f.lo[j], f.up[j]
		k.vstat[j] = spNBLower
		k.slot[j] = -1
	}
	for i := 0; i < f.m; i++ {
		c := f.n + i
		lo, up := logicalBounds(f.sense[i])
		k.tlo[c], k.tup[c] = lo, up
		if f.sense[i] == GE {
			k.vstat[c] = spNBUpper
		} else {
			k.vstat[c] = spNBLower
		}
		k.slot[c] = -1
	}
	copy(k.wlo, k.tlo)
	copy(k.wup, k.tup)
}

func (k *spState) resetEtas() {
	k.etaPiv = k.etaPiv[:0]
	k.etaPivVal = k.etaPivVal[:0]
	k.etaIdx = k.etaIdx[:0]
	k.etaVal = k.etaVal[:0]
	if cap(k.etaStart) == 0 {
		k.etaStart = make([]int, 1, 64)
	}
	k.etaStart = k.etaStart[:1]
	k.etaStart[0] = 0
	k.etaBase = 0
}

// setColdBasis installs the all-logical basis (B = I, empty eta file).
func (k *spState) setColdBasis() {
	f := &k.f
	k.resetEtas()
	for i := 0; i < f.m; i++ {
		c := f.n + i
		k.basic[i] = c
		k.vstat[c] = spBasic
		k.slot[c] = i
	}
}

// nbVal is the value of nonbasic column j.
func (k *spState) nbVal(j int) float64 {
	if k.vstat[j] == spNBUpper {
		return k.wup[j]
	}
	return k.wlo[j]
}

func (k *spState) ftran(v []float64) {
	for e := 0; e < len(k.etaPiv); e++ {
		r := k.etaPiv[e]
		pv := v[r]
		if pv == 0 {
			continue
		}
		pv /= k.etaPivVal[e]
		v[r] = pv
		for t := k.etaStart[e]; t < k.etaStart[e+1]; t++ {
			v[k.etaIdx[t]] -= k.etaVal[t] * pv
		}
	}
}

func (k *spState) btran(v []float64) {
	for e := len(k.etaPiv) - 1; e >= 0; e-- {
		r := k.etaPiv[e]
		s := v[r]
		for t := k.etaStart[e]; t < k.etaStart[e+1]; t++ {
			s -= k.etaVal[t] * v[k.etaIdx[t]]
		}
		v[r] = s / k.etaPivVal[e]
	}
}

// appendEta files the FTRANed column v with pivot row r.
func (k *spState) appendEta(r int, v []float64) {
	k.etaPiv = append(k.etaPiv, r)
	k.etaPivVal = append(k.etaPivVal, v[r])
	for i := range v {
		if i != r && (v[i] > etaDropTol || v[i] < -etaDropTol) {
			k.etaIdx = append(k.etaIdx, i)
			k.etaVal = append(k.etaVal, v[i])
		}
	}
	k.etaStart = append(k.etaStart, len(k.etaIdx))
}

// computeXB recomputes the basic values from scratch:
// xB = B^-1 (b - A_N x_N).
func (k *spState) computeXB() {
	f := &k.f
	v := k.xB
	copy(v, f.b)
	for j := 0; j < k.ncols; j++ {
		if k.vstat[j] == spBasic {
			continue
		}
		val := k.nbVal(j)
		if val == 0 {
			continue
		}
		if j < f.n {
			for t := f.colStart[j]; t < f.colStart[j+1]; t++ {
				v[f.rowIdx[t]] -= f.val[t] * val
			}
		} else {
			v[j-f.n] -= val
		}
	}
	k.ftran(v)
}

// dropToBound expels column c from the basis bookkeeping during
// refactorization repair, parking it at its nearest representable
// bound.
func (k *spState) dropToBound(c int) {
	k.restoreCol(c)
	k.slot[c] = -1
	if math.IsInf(k.wlo[c], -1) {
		k.vstat[c] = spNBUpper
	} else {
		k.vstat[c] = spNBLower
	}
}

// refactorize rebuilds the eta file from scratch for the current basic
// set: basic logicals claim their own rows with trivial (unfiled)
// etas, structural basics are FTRANed in ascending-nnz order and pivot
// on their largest remaining row, and rows left unclaimed (dependent
// structural columns were expelled) are repaired with their logicals.
// Returns false on a genuinely singular system — the caller treats
// that as numerical breakdown.
func (k *spState) refactorize() bool {
	f := &k.f
	m := f.m
	k.resetEtas()
	done := growB(k.bwork, m)
	k.bwork = done
	// Snapshot the basic set before reassigning row slots below.
	scratch := growI(k.iwork, 2*m)
	k.iwork = scratch
	cols, order := scratch[:m], scratch[m:m]
	copy(cols, k.basic[:m])
	for _, c := range cols {
		if c >= f.n {
			r := c - f.n
			done[r] = true
			k.basic[r] = c // logicals return to their own rows
			k.slot[c] = r
		} else {
			order = append(order, c)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		na := f.colStart[order[a]+1] - f.colStart[order[a]]
		nb := f.colStart[order[b]+1] - f.colStart[order[b]]
		if na != nb {
			return na < nb
		}
		return order[a] < order[b]
	})
	place := func(c int, v []float64) bool {
		best, bestAbs := -1, refacPivTol
		for r := 0; r < m; r++ {
			if done[r] {
				continue
			}
			if a := math.Abs(v[r]); a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if best < 0 {
			return false
		}
		done[best] = true
		k.basic[best] = c
		k.slot[c] = best
		k.vstat[c] = spBasic
		k.appendEta(best, v)
		return true
	}
	for _, c := range order {
		v := k.alpha
		clear(v)
		f.scatterCol(c, v)
		k.ftran(v)
		if !place(c, v) {
			k.dropToBound(c) // dependent column: expel, repair below
		}
	}
	for r := 0; r < m; r++ {
		if done[r] {
			continue
		}
		c := f.n + r
		v := k.alpha
		clear(v)
		v[r] = 1
		k.ftran(v)
		if !place(c, v) {
			return false
		}
	}
	k.etaBase = len(k.etaPiv)
	k.computeXB()
	return true
}

// --- phase-1 relaxation bookkeeping -------------------------------

// relaxCol widens column c's working bound to admit value v and
// prices the violation at ±1.
func (k *spState) relaxCol(c int, v float64) {
	if v < k.tlo[c] {
		k.wlo[c] = v
		k.cost[c] = 1 // push up
	} else {
		k.wup[c] = v
		k.cost[c] = -1 // push down
	}
	k.relaxed = append(k.relaxed, c)
}

// restoreCol reinstates column c's true bounds; during phase 1 its
// composite cost is zeroed.
func (k *spState) restoreCol(c int) {
	if k.wlo[c] == k.tlo[c] && k.wup[c] == k.tup[c] {
		return
	}
	k.wlo[c], k.wup[c] = k.tlo[c], k.tup[c]
	if k.inPhase1 {
		k.cost[c] = 0
	}
	for i, rc := range k.relaxed {
		if rc == c {
			k.relaxed[i] = k.relaxed[len(k.relaxed)-1]
			k.relaxed = k.relaxed[:len(k.relaxed)-1]
			break
		}
	}
}

// colVal is the current value of column c (basic or nonbasic).
func (k *spState) colVal(c int) float64 {
	if s := k.slot[c]; s >= 0 {
		return k.xB[s]
	}
	return k.nbVal(c)
}

// setupPhase1 relaxes every out-of-bound basic variable. Returns
// whether any infeasibility exists.
func (k *spState) setupPhase1() bool {
	clear(k.cost[:k.ncols])
	for i := 0; i < k.f.m; i++ {
		c := k.basic[i]
		if v := k.xB[i]; v < k.tlo[c]-feasEps || v > k.tup[c]+feasEps {
			k.relaxCol(c, v)
		}
	}
	return len(k.relaxed) > 0
}

// sweepRestorations restores relaxed columns whose value has come back
// inside the true bounds.
func (k *spState) sweepRestorations() {
	for i := 0; i < len(k.relaxed); {
		c := k.relaxed[i]
		v := k.colVal(c)
		if v >= k.tlo[c]-feasEps && v <= k.tup[c]+feasEps {
			k.restoreCol(c) // swap-removes; do not advance i
			continue
		}
		i++
	}
}

// infeasSum is the residual bound violation over relaxed columns.
func (k *spState) infeasSum() float64 {
	s := 0.0
	for _, c := range k.relaxed {
		v := k.colVal(c)
		if v < k.tlo[c] {
			s += k.tlo[c] - v
		} else if v > k.tup[c] {
			s += v - k.tup[c]
		}
	}
	return s
}

// restoreAllRelaxed drops every remaining relaxation (entering phase 2
// with residuals within tolerance). If a nonbasic column's value moved
// when its bound snapped back, xB is recomputed to stay consistent.
func (k *spState) restoreAllRelaxed() {
	shifted := false
	for len(k.relaxed) > 0 {
		c := k.relaxed[len(k.relaxed)-1]
		if k.slot[c] < 0 && k.nbVal(c) != 0 {
			before := k.nbVal(c)
			k.restoreCol(c)
			if k.nbVal(c) != before {
				shifted = true
			}
			continue
		}
		k.restoreCol(c)
	}
	if shifted {
		k.computeXB()
	}
}

// setPhase2Cost loads the objective into the cost row.
func (k *spState) setPhase2Cost() {
	clear(k.cost[:k.ncols])
	copy(k.cost[:k.f.n], k.f.obj)
}

// priceCol is the reduced cost of column j against duals y.
func (k *spState) priceCol(j int, y []float64) float64 {
	f := &k.f
	d := k.cost[j]
	if j < f.n {
		for t := f.colStart[j]; t < f.colStart[j+1]; t++ {
			d -= f.val[t] * y[f.rowIdx[t]]
		}
	} else {
		d -= y[j-f.n]
	}
	return d
}

// spRun carries the shared per-solve budget and polling across phases.
type spRun struct {
	poll   *solve.Poll
	budget *int
	warm   bool
	stats  *solve.Stats
	cause  solve.StopCause
}

func (k *spState) countIter(run *spRun) {
	*run.budget--
	run.stats.SimplexIters++
	if run.warm {
		run.stats.WarmPivots++
	} else {
		run.stats.ColdPivots++
	}
}

// simplex runs bounded-variable primal pivots against the active cost
// row until the phase resolves. Entering is Dantzig pricing with the
// same stall-triggered Bland fallback as the dense kernel; steps are
// either bound flips (the entering variable crosses its own span; no
// basis change) or pivots filed as etas.
func (k *spState) simplex(run *spRun, phase1 bool) spOutcome {
	f := &k.f
	m := f.m
	bland := false
	stall := 0
	degenerateRunLimit := m + 6
	for {
		if *run.budget <= 0 {
			run.cause = solve.NodeLimit
			return spIterLimit
		}
		if cause, stop := run.poll.Interrupted(); stop {
			run.cause = cause
			return spIterLimit
		}

		// Pricing: y = B^-T c_B, then scan nonbasic reduced costs.
		y := k.y
		for r := 0; r < m; r++ {
			y[r] = k.cost[k.basic[r]]
		}
		k.btran(y)
		enter := -1
		var dir, bestScore float64
		bestScore = costEps
		for j := 0; j < k.ncols; j++ {
			st := k.vstat[j]
			if st == spBasic || k.wup[j]-k.wlo[j] <= ratioTie {
				continue // basic, or fixed span (EQ logicals, fixed vars)
			}
			d := k.priceCol(j, y)
			var score, dj float64
			if st == spNBLower {
				score, dj = d, 1
			} else {
				score, dj = -d, -1
			}
			if score > bestScore {
				enter, dir, bestScore = j, dj, score
				if bland {
					break // Bland: first eligible index
				}
			}
		}
		if enter < 0 {
			if phase1 {
				return spOptimal // priced optimal; residual decides feasibility
			}
			return spOptimal
		}

		// Column update: alpha = B^-1 A_enter.
		alpha := k.alpha
		clear(alpha)
		f.scatterCol(enter, alpha)
		k.ftran(alpha)

		// Ratio test. The entering variable moves by t in direction
		// dir from its current bound; basic values move by -dir*t*alpha.
		// Phase 1 caps infeasible basics AT their true bound, so each
		// step weakly reduces every violation.
		limit := k.wup[enter] - k.wlo[enter] // bound-flip distance
		leaveRow := -1
		leaveUpper := false // leaving variable parks at its upper bound
		restore := false    // phase 1: leaving lands on a true bound
		for r := 0; r < m; r++ {
			a := alpha[r]
			if a < pivotEps && a > -pivotEps {
				continue
			}
			g := -dir * a
			c := k.basic[r]
			v := k.xB[r]
			var tr float64
			var atUp, rest bool
			if g > 0 { // basic value rises
				bound := k.wup[c]
				atUp = true
				if phase1 && v < k.tlo[c]-feasEps {
					bound, atUp, rest = k.tlo[c], false, true
				}
				if math.IsInf(bound, 1) {
					continue
				}
				tr = (bound - v) / g
			} else { // basic value falls
				bound := k.wlo[c]
				if phase1 && v > k.tup[c]+feasEps {
					bound, atUp, rest = k.tup[c], true, true
				}
				if math.IsInf(bound, -1) {
					continue
				}
				tr = (v - bound) / -g
			}
			if tr < 0 {
				tr = 0
			}
			better := false
			if leaveRow < 0 {
				better = tr < limit+ratioTie // a tie with the flip distance prefers the pivot
			} else if tr < limit-ratioTie {
				better = true
			} else if tr < limit+ratioTie {
				if bland {
					better = c < k.basic[leaveRow]
				} else {
					better = math.Abs(a) > math.Abs(alpha[leaveRow])
				}
			}
			if better {
				if tr < limit {
					limit = tr
				}
				leaveRow, leaveUpper, restore = r, atUp, rest
			}
		}
		if leaveRow < 0 && math.IsInf(limit, 1) {
			if phase1 {
				// Phase-1 composite is bounded; an unbounded ray means
				// the factorization has degraded.
				return spFail
			}
			return spUnbounded
		}
		t := limit

		// Apply the step.
		for r := 0; r < m; r++ {
			if a := alpha[r]; a != 0 {
				k.xB[r] -= dir * t * a
			}
		}
		if leaveRow < 0 {
			// Bound flip: the entering variable crosses to its other
			// working bound; the basis is unchanged.
			if k.vstat[enter] == spNBLower {
				k.vstat[enter] = spNBUpper
			} else {
				k.vstat[enter] = spNBLower
			}
			k.countIter(run)
		} else {
			var enterVal float64
			if dir > 0 {
				enterVal = k.wlo[enter] + t
			} else {
				enterVal = k.wup[enter] - t
			}
			lc := k.basic[leaveRow]
			if leaveUpper {
				k.vstat[lc] = spNBUpper
			} else {
				k.vstat[lc] = spNBLower
			}
			k.slot[lc] = -1
			if restore {
				k.restoreCol(lc) // landed on its true bound: feasible again
			}
			k.appendEta(leaveRow, alpha)
			k.basic[leaveRow] = enter
			k.vstat[enter] = spBasic
			k.slot[enter] = leaveRow
			k.xB[leaveRow] = enterVal
			k.countIter(run)

			if len(k.etaPiv)-k.etaBase >= refactorEvery {
				if !k.refactorize() {
					return spFail
				}
				if phase1 {
					// Repair may have moved values: rebuild the
					// relaxation set against the recomputed basics.
					k.rebuildRelaxations()
					if len(k.relaxed) == 0 {
						return spFeasible
					}
				} else {
					for i := 0; i < m; i++ {
						c := k.basic[i]
						if v := k.xB[i]; v < k.tlo[c]-feasEps || v > k.tup[c]+feasEps {
							return spRestart
						}
					}
				}
			}
		}

		if phase1 {
			k.sweepRestorations()
			if len(k.relaxed) == 0 {
				return spFeasible
			}
		}

		// Anti-cycling: a long degenerate run switches to Bland's rule;
		// the first real step switches back (same policy as the dense
		// kernel).
		if t <= ratioTie {
			stall++
			if stall >= degenerateRunLimit {
				bland = true
			}
		} else {
			bland = false
			stall = 0
		}
	}
}

// rebuildRelaxations rebases the phase-1 relaxation set after a
// refactorization moved basic values.
func (k *spState) rebuildRelaxations() {
	for len(k.relaxed) > 0 {
		k.restoreCol(k.relaxed[len(k.relaxed)-1])
	}
	k.setupPhase1()
}

// phases runs phase 1 (when needed) and phase 2 under one shared pivot
// budget, honouring the total-MaxIter contract. feasible reports
// whether the kernel holds a feasible point to extract (phase-1
// interruptions do not). ok=false is numerical breakdown.
func (k *spState) phases(ctx context.Context, opts Options, warm bool, stats *solve.Stats) (st Status, cause solve.StopCause, feasible, ok bool) {
	budget := opts.MaxIter
	if budget <= 0 {
		budget = 200 * (k.f.m + k.ncols + 10)
	}
	budget -= stats.SimplexIters // pivots already spent this solve
	run := &spRun{poll: solve.NewPoll(ctx, opts.Deadline, 0), budget: &budget, warm: warm, stats: stats}
	for attempt := 0; ; attempt++ {
		k.inPhase1 = true
		if k.setupPhase1() {
			switch k.simplex(run, true) {
			case spFail:
				return 0, 0, false, false
			case spIterLimit:
				return IterLimit, run.cause, false, true
			case spOptimal:
				if k.infeasSum() > feasEps {
					return Infeasible, solve.None, false, true
				}
			case spFeasible:
				// fall through to phase 2
			}
		}
		k.restoreAllRelaxed()
		k.inPhase1 = false
		k.setPhase2Cost()
		switch k.simplex(run, false) {
		case spFail:
			return 0, 0, false, false
		case spRestart:
			if attempt+1 >= spRestartLimit {
				return 0, 0, false, false
			}
			continue
		case spUnbounded:
			return Unbounded, solve.None, true, true
		case spIterLimit:
			return IterLimit, run.cause, true, true
		default: // spOptimal
			return Optimal, solve.Optimal, true, true
		}
	}
}

// point extracts the reduced structural values.
func (k *spState) point(x []float64) []float64 {
	x = growF(x, k.f.n)
	for j := 0; j < k.f.n; j++ {
		x[j] = k.colVal(j)
	}
	return x
}

// dualsReduced extracts reduced-row duals from the phase-2 cost:
// y = B^-T c_B, with rows kept by a basic logical snapped to exactly
// 0 — such rows are redundant at the current basis and the only
// consistent dual is zero (same policy as the dense kernel).
func (k *spState) dualsReduced() []float64 {
	m := k.f.m
	y := make([]float64, m)
	for r := 0; r < m; r++ {
		y[r] = k.cost[k.basic[r]]
	}
	k.btran(y)
	for r := 0; r < m; r++ {
		if c := k.basic[r]; c >= k.f.n {
			y[c-k.f.n] = 0
		}
	}
	return y
}
