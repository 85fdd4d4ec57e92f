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
// feasibility check.
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
	// RootBasis, when non-nil, seeds the root relaxation's simplex from a
	// basis captured in an earlier solve of a same-shaped problem (the
	// incremental engine re-solving a subproblem whose formulation shape
	// survived a delta). The workspace validates the basis and falls back
	// to a cold solve when it is stale or mismatched, so a wrong guess
	// costs nothing but the check.
	RootBasis *lp.Basis
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	X         []float64 // best integer-feasible point (nil if none)
	Objective float64   // objective at X
	Bound     float64   // proven upper bound on the optimum
	Nodes     int       // branch-and-bound nodes explored
	// RootBasis is the optimal basis of the root relaxation (nil when the
	// root LP did not reach optimality). Callers re-solving the same
	// formulation shape after a data-only change can feed it back through
	// Options.RootBasis to skip most of the root's simplex work.
	RootBasis *lp.Basis
	// Stats aggregates B&B nodes, incumbents, simplex pivots across all
	// node LPs, and why the solve stopped.
	Stats solve.Stats
}

const intEps = 1e-6

// node is a branch-and-bound node: a persistent chain of bound rows
// added on top of the root LP.
type node struct {
	parent *node
	branch lp.Constraint // the bound added at this node (unused at root)
	depth  int
	bound  float64 // LP relaxation objective (upper bound for subtree)

	// Pseudocost bookkeeping: which variable/direction created this node
	// and the parent's LP bound and fractional part at branching time.
	pcVar         int
	pcFrac        float64
	pcUp          bool
	pcParentBound float64

	// basis is the optimal LP basis of this node, captured when its
	// relaxation solves to optimality; children warm-start from it (their
	// problem is this node's problem plus one appended bound row).
	basis *lp.Basis
}

func (n *node) rows() []lp.Constraint {
	var chain []lp.Constraint
	for cur := n; cur != nil && cur.parent != nil; cur = cur.parent {
		chain = append(chain, cur.branch)
	}
	// Reverse for readability/determinism (oldest first).
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
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
	ctx  context.Context
	prob *Problem
	opts Options
	// ws is the pooled LP workspace shared by every node LP of this
	// solve: tableau storage is allocated once and reused, and node
	// solves warm-start in it from their parent's captured basis.
	ws *lp.Workspace
	// pseudocost state: sums of per-unit objective degradation and
	// observation counts, for down and up branches.
	pcDownSum, pcUpSum []float64
	pcDownN, pcUpN     []int

	incumbent    []float64
	incumbentObj float64
	haveInc      bool
	nodes        int
	stats        solve.Stats
	// rootBasis is the root relaxation's optimal basis, surfaced on the
	// Solution for cross-solve warm starting.
	rootBasis *lp.Basis
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
	s := &solver{
		ctx:          ctx,
		prob:         p,
		opts:         opts,
		ws:           lp.AcquireWorkspace(),
		pcDownSum:    make([]float64, p.LP.NumVars),
		pcUpSum:      make([]float64, p.LP.NumVars),
		pcDownN:      make([]int, p.LP.NumVars),
		pcUpN:        make([]int, p.LP.NumVars),
		incumbentObj: math.Inf(-1),
	}
	start := time.Now()
	sol, err := s.run()
	s.ws.Release()
	sol.Stats.Wall = time.Since(start)
	return sol, err
}

// solveLP solves the root LP plus the node's branch rows, warm-started
// from the parent's captured basis when available (the node's problem
// extends the parent's by exactly one appended bound row, which is the
// dual-simplex sweet spot). On an optimal solve the node's own basis is
// captured for its future children before the shared workspace moves on
// to the next node.
func (s *solver) solveLP(n *node) (lp.Solution, error) {
	extra := n.rows()
	prob := lp.Problem{
		NumVars:   s.prob.LP.NumVars,
		Objective: s.prob.LP.Objective,
		Rows:      make([]lp.Constraint, 0, len(s.prob.LP.Rows)+len(extra)),
	}
	prob.Rows = append(prob.Rows, s.prob.LP.Rows...)
	prob.Rows = append(prob.Rows, extra...)
	from := s.opts.RootBasis // cross-solve seed for the root relaxation
	if n.parent != nil {
		from = n.parent.basis // nil when the parent's LP didn't reach optimality
	}
	sol, err := s.ws.SolveFrom(s.ctx, &prob, lp.Options{Deadline: s.opts.Deadline}, from)
	if err == nil && sol.Status == lp.Optimal {
		n.basis = s.ws.CaptureBasis(nil)
		if n.parent == nil {
			s.rootBasis = n.basis
		}
	}
	s.stats.Merge(sol.Stats)
	return sol, err
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

// feasible checks all original rows and non-negativity for a candidate
// incumbent produced by a rounder.
func (s *solver) feasible(x []float64) bool {
	const tol = 1e-6
	for j := range x {
		if x[j] < -tol {
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
		sol.RootBasis = s.rootBasis
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
			continue // pruned by bound
		}
		sol, err := s.solveLP(n)
		if err != nil {
			return Solution{}, err
		}
		s.nodes++
		if sol.Status == lp.Infeasible || sol.Status == lp.Unbounded {
			continue
		}
		if sol.Status == lp.IterLimit && sol.X == nil {
			continue
		}
		n.bound = sol.Objective
		if n.pcVar >= 0 {
			s.recordPseudocost(n.pcVar, n.pcParentBound, sol.Objective, n.pcFrac, n.pcUp)
		}
		s.processLP(n, sol, open)
	}

	bound := math.Inf(-1)
	if s.haveInc {
		bound = s.incumbentObj
	}
	for _, n := range *open {
		if n.bound > bound {
			bound = n.bound
		}
	}
	out := Solution{Nodes: s.nodes, Bound: bound}
	s.stats.Stop = stop
	switch {
	case s.haveInc && (open.Len() == 0 || bound <= s.incumbentObj+s.gapSlack()):
		out.Status = Optimal
		out.X = s.incumbent
		out.Objective = s.incumbentObj
		out.Bound = math.Max(bound, s.incumbentObj)
		s.stats.Stop = solve.Optimal
	case s.haveInc:
		out.Status = Feasible
		out.X = s.incumbent
		out.Objective = s.incumbentObj
	case open.Len() == 0:
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
	down := &node{
		parent: n,
		depth:  n.depth + 1,
		branch: lp.Constraint{Coefs: []lp.Coef{{Var: j, Val: 1}}, Sense: lp.LE, RHS: floorV},
		bound:  sol.Objective, // parent bound until solved
	}
	up := &node{
		parent: n,
		depth:  n.depth + 1,
		branch: lp.Constraint{Coefs: []lp.Coef{{Var: j, Val: 1}}, Sense: lp.GE, RHS: floorV + 1},
		bound:  sol.Objective,
	}
	down.pcVar, down.pcFrac, down.pcUp, down.pcParentBound = j, frac, false, sol.Objective
	up.pcVar, up.pcFrac, up.pcUp, up.pcParentBound = j, frac, true, sol.Objective
	heap.Push(open, down)
	heap.Push(open, up)
}
