// Package mip implements a branch-and-bound mixed-integer programming
// solver on top of the simplex LP solver in internal/lp. It stands in
// for the off-the-shelf solver (Gurobi 9.5) used by the paper's
// MIP-based algorithm (Section IV-C1).
//
// The solver preserves the contract the RASA algorithm depends on:
//
//   - exact within a configurable relative gap on small instances,
//   - anytime: interrupting via deadline returns the best incumbent
//     found so far together with a valid upper bound, which is what lets
//     the paper (Section V-E) trade solution quality against runtime by
//     adjusting a single time-out parameter.
//
// Branching supports most-fractional and pseudocost rules (the latter is
// the default; the choice is an ablation target, see DESIGN.md).
package mip

import (
	"container/heap"
	"context"
	"math"
	"sync"
	"time"

	"github.com/cloudsched/rasa/internal/lp"
	"github.com/cloudsched/rasa/internal/solve"
)

// BranchRule selects how the branching variable is chosen.
type BranchRule int

// Branching rules.
const (
	// Pseudocost branching estimates per-variable objective degradation
	// from observed branchings and picks the variable with the largest
	// expected impact; falls back to most-fractional until history
	// accumulates.
	Pseudocost BranchRule = iota
	// MostFractional picks the integer variable whose LP value is
	// closest to 0.5 away from integrality.
	MostFractional
)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// Optimal: incumbent proven optimal within the gap tolerance.
	Optimal Status = iota
	// Feasible: an incumbent exists but optimality was not proven before
	// the budget expired (anytime result).
	Feasible
	// Infeasible: no integer-feasible point exists.
	Infeasible
	// NoSolution: budget expired before any incumbent was found.
	NoSolution
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case NoSolution:
		return "no-solution"
	}
	return "unknown"
}

// Problem is a MIP: an LP plus integrality flags per variable.
type Problem struct {
	LP      lp.Problem
	Integer []bool // len == LP.NumVars; true marks an integer variable
}

// Rounder attempts to turn a fractional LP point into an integer-feasible
// solution. It returns the repaired point, its objective, and whether it
// succeeded. Model builders provide problem-specific rounders; a nil
// rounder falls back to naive nearest-integer rounding with a full
// feasibility check. x is the node LP's buffer, valid only during the
// call: a rounder that keeps it must copy it.
type Rounder func(x []float64) ([]float64, float64, bool)

// Options tune a solve.
type Options struct {
	Deadline  time.Time  // zero = no deadline
	Gap       float64    // relative optimality gap tolerance; default 1e-6
	MaxNodes  int        // node budget; 0 = default (1<<20)
	Branching BranchRule // default Pseudocost
	Rounder   Rounder    // optional incumbent heuristic
	// RoundEvery applies the rounding heuristic at every k-th node
	// (default 8). Set negative to disable heuristic rounding entirely
	// (ablation: BenchmarkAblationAnytime).
	RoundEvery int
	// Cutoff, when non-nil, is an external objective cutoff polled at
	// every node pop: once it reports (c, true) and the proven global
	// upper bound is <= c, the solve stops early with stop cause
	// solve.Cancelled — this MIP provably cannot beat c, so racing it
	// further is wasted budget (used by selector.Label to cancel the
	// loser of the CG-vs-MIP race).
	Cutoff func() (float64, bool)
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	X         []float64 // best integer-feasible point (nil if none)
	Objective float64   // objective at X
	Bound     float64   // proven upper bound on the optimum
	Nodes     int       // branch-and-bound nodes explored
	// Stats aggregates B&B nodes, incumbents, simplex pivots across all
	// node LPs, and why the solve stopped.
	Stats solve.Stats
}

const intEps = 1e-6

// node is a branch-and-bound node: one bound change on top of its
// parent's bounds. The root changes nothing (pcVar = -1).
type node struct {
	parent *node
	bound  float64 // LP relaxation objective (upper bound for subtree)

	// The bound change that created this node, x_pcVar >= value when
	// pcUp and x_pcVar <= value otherwise, plus the pseudocost
	// bookkeeping: the parent's LP bound and the variable's fractional
	// part at branching time.
	pcVar         int
	pcUp          bool
	value         float64
	pcFrac        float64
	pcParentBound float64

	// basis is the optimal LP basis of this node, captured when its
	// relaxation solves to optimality; children warm-start from it (their
	// problem is this node's with one bound tightened). unpopped counts
	// the children not yet popped: once both are, the basis is recycled.
	basis    *lp.Basis
	unpopped int
}

// nodeHeap is a max-heap on LP bound (best-bound-first search).
type nodeHeap []*node

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].bound > h[j].bound }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type solver struct {
	*scratch
	ctx  context.Context
	prob *Problem
	opts Options
	// ws is the pooled LP workspace shared by every node LP of this
	// solve: tableau storage is allocated once and reused, and node
	// solves warm-start in it from their parent's captured basis.
	ws *lp.Workspace
	// nodeLP, the root LP under the bounds lo/up, is what a node falls
	// back to SolveFrom with.
	nodeLP lp.Problem

	incumbent    []float64
	incumbentObj float64
	haveInc      bool
	// unsolved is the highest bound of a node whose LP stopped short of
	// its optimum (pivot limit or interruption): its subtree was never
	// searched, so the final bound keeps it. -inf when there is none.
	unsolved float64
	// pruned is the highest bound of a node fathomed because it could not
	// beat the incumbent by more than the gap slack: its subtree was not
	// searched either, so under a gap the final bound keeps it too. -inf
	// when there is none.
	pruned float64
	nodes  int
	stats  solve.Stats
}

// scratch is the storage a solve takes over from an earlier one through
// scratchPool, so the thousands of small pricing MIPs of a CG run
// allocate neither their per-variable arrays nor their node bases.
type scratch struct {
	// rootLo and rootUp are the problem's variable bounds; lo and up are
	// the scratch a node's bounds are walked into.
	rootLo, rootUp, lo, up []float64
	// pseudocost state: sums of per-unit objective degradation and
	// observation counts, for down and up branches.
	pcDownSum, pcUpSum []float64
	pcDownN, pcUpN     []int
	// bases is every node basis the solve owns, the root's included.
	// free is the stack of those no open node will read again.
	bases, free []*lp.Basis
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledInts caps the basis storage (in ints) a scratch may carry
// back into the pool; a large direct MIP's bases are dropped instead.
const maxPooledInts = 1 << 17

// takeScratch returns pooled scratch sized for n variables, with every
// basis it carries free.
func takeScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.rootLo = zeroed(sc.rootLo, n)
	sc.rootUp = zeroed(sc.rootUp, n)
	sc.lo = zeroed(sc.lo, n)
	sc.up = zeroed(sc.up, n)
	sc.pcDownSum = zeroed(sc.pcDownSum, n)
	sc.pcUpSum = zeroed(sc.pcUpSum, n)
	sc.pcDownN = zeroed(sc.pcDownN, n)
	sc.pcUpN = zeroed(sc.pcUpN, n)
	sc.free = append(sc.free[:0], sc.bases...)
	return sc
}

// putScratch returns sc to the pool once nothing reads its bases.
func putScratch(sc *scratch) {
	size := 0
	for _, b := range sc.bases {
		size += b.Rows()
	}
	if size > maxPooledInts {
		sc.bases = nil
	}
	sc.free = sc.free[:0]
	scratchPool.Put(sc)
}

// zeroed returns s resized to n zero values, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Solve runs branch and bound. The zero Options value gives exact solves
// with pseudocost branching and heuristic rounding enabled. The context
// interrupts the solve at node granularity (and, within a node LP, at
// pivot granularity); an interrupted solve returns the best incumbent
// found so far with stop cause solve.Cancelled or solve.Deadline.
func Solve(ctx context.Context, p *Problem, opts Options) (Solution, error) {
	if len(p.Integer) != p.LP.NumVars {
		p2 := *p
		flags := make([]bool, p.LP.NumVars)
		copy(flags, p.Integer)
		p2.Integer = flags
		p = &p2
	}
	if opts.Gap <= 0 {
		opts.Gap = 1e-6
	}
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 1 << 20
	}
	if opts.RoundEvery == 0 {
		opts.RoundEvery = 8
	}
	n := p.LP.NumVars
	s := &solver{
		scratch:      takeScratch(n),
		ctx:          ctx,
		prob:         p,
		opts:         opts,
		ws:           lp.AcquireWorkspace(),
		incumbentObj: math.Inf(-1),
		unsolved:     math.Inf(-1),
		pruned:       math.Inf(-1),
	}
	s.nodeLP = lp.Problem{NumVars: n, Objective: p.LP.Objective, Rows: p.LP.Rows, Lower: s.lo, Upper: s.up}
	for j := 0; j < n; j++ {
		s.rootUp[j] = math.Inf(1)
	}
	if p.LP.Lower != nil {
		copy(s.rootLo, p.LP.Lower)
	}
	if p.LP.Upper != nil {
		copy(s.rootUp, p.LP.Upper)
	}
	start := time.Now()
	sol, err := s.run()
	s.ws.Release()
	putScratch(s.scratch)
	sol.Stats.Wall = time.Since(start)
	return sol, err
}

// solveLP solves the node's LP: the root LP under the node's bounds.
// The root's optimal tableau becomes the workspace's anchor, and every
// later node is re-optimized from it (lp.Workspace.SolveNode), rebased
// onto the parent's captured basis: the node's problem is the parent's
// with one bound tightened, the dual-simplex sweet spot. A node the
// anchored path declines is solved by a warm SolveFrom, which goes
// cold when the decline was a stalled dual repair. On an optimal
// solve the node's own basis is captured for its future children
// before the shared workspace moves on to the next node. A node's X and
// Duals are the workspace's buffers, valid until the next solve.
func (s *solver) solveLP(n *node) (lp.Solution, error) {
	opts := lp.Options{Deadline: s.opts.Deadline}
	var sol lp.Solution
	var err error
	if n.parent == nil {
		sol, err = s.ws.Solve(s.ctx, &s.prob.LP, opts)
	} else {
		if !s.nodeBounds(n) {
			return lp.Solution{Status: lp.Infeasible}, nil
		}
		var ok bool
		// n.parent.basis is nil when the parent's LP didn't reach
		// optimality: SolveNode declines and SolveFrom solves cold.
		if sol, ok = s.ws.SolveNode(s.ctx, opts, s.lo, s.up, n.parent.basis); !ok {
			s.stats.Merge(sol.Stats) // a stalled dual repair's pivots
			sol, err = s.ws.SolveFrom(s.ctx, &s.nodeLP, opts, n.parent.basis)
		}
	}
	if err == nil && sol.Status == lp.Optimal {
		n.basis = s.captureBasis()
		if n.parent == nil {
			s.ws.Anchor()
		}
	}
	s.stats.Merge(sol.Stats)
	return sol, err
}

// captureBasis captures the workspace's basis for a node into a free
// basis of the scratch.
func (s *solver) captureBasis() *lp.Basis {
	var dst *lp.Basis
	if k := len(s.free); k > 0 {
		dst, s.free = s.free[k-1], s.free[:k-1]
	} else {
		dst = new(lp.Basis)
		s.bases = append(s.bases, dst)
	}
	return s.ws.CaptureBasis(dst)
}

// popped records that one child of parent has been popped. Once both
// have, nothing reads parent's basis again and it is freed for reuse.
func (s *solver) popped(parent *node) {
	parent.unpopped--
	if parent.unpopped == 0 && parent.basis != nil {
		s.free = append(s.free, parent.basis)
		parent.basis = nil
	}
}

// nodeBounds walks n's bound changes up to the root into s.lo/s.up,
// keeping the tightest bound on each side. It reports false when the
// bounds cross: the node is infeasible without an LP, and neither
// SolveNode nor SolveFrom takes crossing bounds.
func (s *solver) nodeBounds(n *node) bool {
	copy(s.lo, s.rootLo)
	copy(s.up, s.rootUp)
	for cur := n; cur.parent != nil; cur = cur.parent {
		j := cur.pcVar
		if cur.pcUp {
			s.lo[j] = math.Max(s.lo[j], cur.value)
		} else {
			s.up[j] = math.Min(s.up[j], cur.value)
		}
		if s.lo[j] > s.up[j] {
			return false
		}
	}
	return true
}

func (s *solver) isIntegral(x []float64) bool {
	for j, isInt := range s.prob.Integer {
		if !isInt {
			continue
		}
		if math.Abs(x[j]-math.Round(x[j])) > intEps {
			return false
		}
	}
	return true
}

func (s *solver) objective(x []float64) float64 {
	var obj float64
	for _, c := range s.prob.LP.Objective {
		obj += c.Val * x[c.Var]
	}
	return obj
}

// feasible checks all original rows and variable bounds for a
// candidate incumbent produced by a rounder.
func (s *solver) feasible(x []float64) bool {
	const tol = 1e-6
	for j := range x {
		if x[j] < s.rootLo[j]-tol || x[j] > s.rootUp[j]+tol {
			return false
		}
	}
	for _, r := range s.prob.LP.Rows {
		var lhs float64
		for _, c := range r.Coefs {
			lhs += c.Val * x[c.Var]
		}
		switch r.Sense {
		case lp.LE:
			if lhs > r.RHS+tol {
				return false
			}
		case lp.GE:
			if lhs < r.RHS-tol {
				return false
			}
		case lp.EQ:
			if math.Abs(lhs-r.RHS) > tol {
				return false
			}
		}
	}
	return s.isIntegral(x)
}

func (s *solver) tryIncumbent(x []float64, obj float64) {
	if obj > s.incumbentObj+1e-12 {
		s.incumbent = append([]float64(nil), x...)
		s.incumbentObj = obj
		s.haveInc = true
		s.stats.Incumbents++
	}
}

// tryRound applies the rounding heuristic to a fractional LP point.
func (s *solver) tryRound(x []float64) {
	if s.opts.RoundEvery < 0 {
		return
	}
	if s.opts.Rounder != nil {
		if rx, obj, ok := s.opts.Rounder(x); ok {
			s.tryIncumbent(rx, obj)
		}
		return
	}
	rx := make([]float64, len(x))
	copy(rx, x)
	for j, isInt := range s.prob.Integer {
		if isInt {
			rx[j] = math.Round(rx[j])
		}
	}
	if s.feasible(rx) {
		s.tryIncumbent(rx, s.objective(rx))
	}
}

// branchVar picks the branching variable among fractional integers.
func (s *solver) branchVar(x []float64) int {
	best := -1
	bestScore := -1.0
	for j, isInt := range s.prob.Integer {
		if !isInt {
			continue
		}
		frac := x[j] - math.Floor(x[j])
		if frac < intEps || frac > 1-intEps {
			continue
		}
		var score float64
		if s.opts.Branching == Pseudocost && s.pcDownN[j]+s.pcUpN[j] > 0 {
			down := avg(s.pcDownSum[j], s.pcDownN[j])
			up := avg(s.pcUpSum[j], s.pcUpN[j])
			// Product rule with fractional distances.
			score = math.Max(down*frac, 1e-9) * math.Max(up*(1-frac), 1e-9)
		} else {
			score = math.Min(frac, 1-frac)
		}
		if score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

func avg(sum float64, n int) float64 {
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

func (s *solver) recordPseudocost(j int, parentBound, childBound, frac float64, up bool) {
	loss := parentBound - childBound
	if loss < 0 {
		loss = 0
	}
	if up {
		dist := 1 - frac
		if dist > intEps {
			s.pcUpSum[j] += loss / dist
			s.pcUpN[j]++
		}
	} else if frac > intEps {
		s.pcDownSum[j] += loss / frac
		s.pcDownN[j]++
	}
}

func (s *solver) run() (Solution, error) {
	finish := func(sol Solution) (Solution, error) {
		s.stats.Nodes = s.nodes
		sol.Stats = s.stats
		return sol, nil
	}
	root := &node{}
	rootSol, err := s.solveLP(root)
	if err != nil {
		return Solution{}, err
	}
	switch rootSol.Status {
	case lp.Infeasible:
		return finish(Solution{Status: Infeasible, Bound: math.Inf(-1)})
	case lp.Unbounded:
		// An unbounded relaxation of a RASA model indicates a modelling
		// bug; surface it as unbounded bound with no solution.
		s.nodes = 1
		return finish(Solution{Status: NoSolution, Bound: math.Inf(1), Nodes: 1})
	case lp.IterLimit:
		if rootSol.X == nil {
			s.nodes = 1
			s.stats.Stop = rootSol.Stats.Stop
			return finish(Solution{Status: NoSolution, Bound: math.Inf(1), Nodes: 1})
		}
	}
	root.bound = rootSol.Objective

	open := &nodeHeap{}
	heap.Init(open)
	// Children inherit their parent's bound until their own LP is solved
	// at pop time. The root is special-cased: its LP is already solved.
	root.pcVar = -1
	s.nodes = 1
	s.processLP(root, rootSol, open)

	stop := solve.Optimal // the loop draining the heap proves optimality
	for open.Len() > 0 {
		if cause, done := solve.Interrupted(s.ctx, s.opts.Deadline); done {
			stop = cause
			break
		}
		if s.nodes >= s.opts.MaxNodes {
			stop = solve.NodeLimit
			break
		}
		// globalBound is the proven upper bound right now: the best open
		// node (best-bound-first heap top) or the incumbent.
		globalBound := (*open)[0].bound
		if s.haveInc && s.incumbentObj > globalBound {
			globalBound = s.incumbentObj
		}
		if s.opts.Cutoff != nil {
			if c, ok := s.opts.Cutoff(); ok && globalBound <= c {
				// This solve provably cannot beat the external cutoff:
				// it lost the race, stop spending budget on it.
				stop = solve.Cancelled
				break
			}
		}
		n := heap.Pop(open).(*node)
		if s.haveInc && n.bound <= s.incumbentObj+s.gapSlack() {
			s.pruned = math.Max(s.pruned, n.bound)
			s.popped(n.parent)
			continue // pruned by bound
		}
		sol, err := s.solveLP(n)
		s.popped(n.parent)
		if err != nil {
			return Solution{}, err
		}
		s.nodes++
		if sol.Status == lp.Infeasible || sol.Status == lp.Unbounded {
			continue
		}
		if sol.Status == lp.IterLimit {
			// Not solved: the node keeps its parent's bound. A point the
			// LP reached is still a candidate incumbent.
			s.unsolved = math.Max(s.unsolved, n.bound)
			if sol.X != nil && s.isIntegral(sol.X) {
				s.tryIncumbent(sol.X, sol.Objective)
			}
			continue
		}
		n.bound = sol.Objective
		if n.pcVar >= 0 {
			s.recordPseudocost(n.pcVar, n.pcParentBound, sol.Objective, n.pcFrac, n.pcUp)
		}
		s.processLP(n, sol, open)
	}

	bound := math.Max(s.unsolved, s.pruned)
	if s.haveInc {
		bound = math.Max(bound, s.incumbentObj)
	}
	for _, n := range *open {
		if n.bound > bound {
			bound = n.bound
		}
	}
	out := Solution{Nodes: s.nodes, Bound: bound}
	s.stats.Stop = stop
	switch {
	case s.haveInc && bound <= s.incumbentObj+s.gapSlack():
		out.Status = Optimal
		out.X = s.incumbent
		out.Objective = s.incumbentObj
		out.Bound = math.Max(bound, s.incumbentObj)
		s.stats.Stop = solve.Optimal
	case s.haveInc:
		out.Status = Feasible
		out.X = s.incumbent
		out.Objective = s.incumbentObj
	case open.Len() == 0 && math.IsInf(s.unsolved, -1):
		out.Status = Infeasible
		out.Bound = math.Inf(-1)
		s.stats.Stop = solve.None
	default:
		out.Status = NoSolution
	}
	return finish(out)
}

func (s *solver) gapSlack() float64 {
	return s.opts.Gap * math.Max(1, math.Abs(s.incumbentObj))
}

// processLP handles a node whose LP relaxation is solved: fathom by
// integrality, try rounding, or branch.
func (s *solver) processLP(n *node, sol lp.Solution, open *nodeHeap) {
	if s.haveInc && sol.Objective <= s.incumbentObj+s.gapSlack() {
		s.pruned = math.Max(s.pruned, sol.Objective)
		return // dominated
	}
	if s.isIntegral(sol.X) {
		s.tryIncumbent(sol.X, sol.Objective)
		return
	}
	if s.opts.RoundEvery > 0 && (s.nodes-1)%s.opts.RoundEvery == 0 {
		s.tryRound(sol.X)
	}
	j := s.branchVar(sol.X)
	if j < 0 {
		// Numerically integral after all.
		s.tryIncumbent(sol.X, sol.Objective)
		return
	}
	frac := sol.X[j] - math.Floor(sol.X[j])
	floorV := math.Floor(sol.X[j])
	// Children inherit the parent's bound until their own LP is solved.
	n.unpopped = 2
	heap.Push(open, &node{parent: n, bound: sol.Objective, pcVar: j, value: floorV, pcFrac: frac, pcParentBound: sol.Objective})
	heap.Push(open, &node{parent: n, bound: sol.Objective, pcVar: j, pcUp: true, value: floorV + 1, pcFrac: frac, pcParentBound: sol.Objective})
}
