package lp

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/cloudsched/rasa/internal/solve"
)

// randomNodeRoot draws a branch-and-bound root relaxation: either the
// TestWarmMatchesColdRandom shape (positive LE rows over boxed
// variables) or randomMixedLP's integer, degenerate, mixed-sense rows
// with boxes added so the root stays bounded. A box is a variable
// upper bound or a row, at random, and some variables get a lower
// bound too.
func randomNodeRoot(rng *rand.Rand) *Problem {
	var p *Problem
	box := 10.0
	if rng.Intn(2) == 0 {
		p = randomMixedLP(rng)
		box = float64(2 + rng.Intn(6))
	} else {
		nv := 2 + rng.Intn(5)
		p = &Problem{NumVars: nv}
		for j := 0; j < nv; j++ {
			p.Objective = append(p.Objective, Coef{Var: j, Val: rng.Float64() * 3})
		}
		for i := 0; i < 2+rng.Intn(4); i++ {
			var cs []Coef
			for j := 0; j < nv; j++ {
				if v := rng.Float64() * 2; v > 0.3 {
					cs = append(cs, Coef{Var: j, Val: v})
				}
			}
			if len(cs) == 0 {
				cs = []Coef{{Var: 0, Val: 1}}
			}
			p.AddRow(cs, LE, 1+rng.Float64()*8)
		}
	}
	if rng.Intn(2) == 0 {
		for j := 0; j < p.NumVars; j++ {
			p.AddRow([]Coef{{Var: j, Val: 1}}, LE, box)
		}
		return p
	}
	p.Lower, p.Upper = make([]float64, p.NumVars), make([]float64, p.NumVars)
	for j := range p.Upper {
		p.Upper[j] = box
		if rng.Intn(4) == 0 {
			p.Lower[j] = float64(rng.Intn(2))
		}
	}
	return p
}

// boundsOf returns p's bounds as explicit slices.
func boundsOf(p *Problem) (lo, up []float64) {
	lo, up = make([]float64, p.NumVars), make([]float64, p.NumVars)
	for j := range lo {
		lo[j], up[j] = p.bound(j)
	}
	return lo, up
}

// randomBound applies the next bound change to lo/up for a node whose
// relaxation is at x: mostly the down or up branch on a variable,
// sometimes an arbitrary bound, which loosens some and makes
// infeasible (even crossing) children common.
func randomBound(rng *rand.Rand, x, lo, up []float64) {
	j := rng.Intn(len(x))
	v := math.Floor(x[j] + 1e-9)
	switch rng.Intn(5) {
	case 0, 1:
		up[j] = math.Max(v-float64(rng.Intn(2)), 0)
	case 2, 3:
		lo[j] = v + 1
	default:
		if rng.Intn(2) == 0 {
			up[j] = float64(rng.Intn(9)) / float64(1+rng.Intn(2))
		} else {
			lo[j] = float64(rng.Intn(5))
		}
	}
}

// bounded is root with its bounds replaced by lo/up.
func bounded(root *Problem, lo, up []float64) *Problem {
	return &Problem{NumVars: root.NumVars, Objective: root.Objective, Rows: root.Rows,
		Lower: append([]float64(nil), lo...), Upper: append([]float64(nil), up...)}
}

// rowForm is root with the bounds lo/up written as rows (x_j <= up_j
// for each finite upper bound, x_j >= lo_j for each positive lower
// bound) and no variable bounds: the formulation the anchored path
// replaced.
func rowForm(root *Problem, lo, up []float64) *Problem {
	q := &Problem{NumVars: root.NumVars, Objective: root.Objective}
	q.Rows = append(q.Rows, root.Rows...)
	for j := range lo {
		if !math.IsInf(up[j], 1) {
			q.AddRow([]Coef{{Var: j, Val: 1}}, LE, up[j])
		}
		if lo[j] > 0 {
			q.AddRow([]Coef{{Var: j, Val: 1}}, GE, lo[j])
		}
	}
	return q
}

// chainStats counts what one anchored root's chains exercised. solves
// and anchored cover every parent basis whose layout is the anchor's;
// relaid counts SolveFrom captures whose layout is not. live counts the
// anchored solves that rebased from the live tableau, stalled the node
// solves whose dual repair gave up at its backstop.
type chainStats struct {
	solves, anchored, live, infeasible, crossed, relaid, stalled int
}

func (cs *chainStats) add(o chainStats) {
	cs.solves += o.solves
	cs.anchored += o.anchored
	cs.live += o.live
	cs.infeasible += o.infeasible
	cs.crossed += o.crossed
	cs.relaid += o.relaid
	cs.stalled += o.stalled
}

// senseFlipped reports whether some row of p changes its normalized
// sense between the lower bounds lo0 and lo1: a row whose effective
// right-hand side changed sign, which is what changes a dense layout.
func senseFlipped(p *Problem, lo0, lo1 []float64) bool {
	p0, p1 := &Problem{NumVars: p.NumVars, Lower: lo0}, &Problem{NumVars: p.NumVars, Lower: lo1}
	for _, r := range p.Rows {
		if normSense(r.Sense, effRHS(p0, r)) != normSense(r.Sense, effRHS(p1, r)) {
			return true
		}
	}
	return false
}

// nodeChain is one branch-and-bound path below an anchored root: its
// bounds, the bases its last node captured by SolveNode and by
// SolveFrom, the lower bounds they were captured under, and that node's
// point.
type nodeChain struct {
	lo, up, capLo []float64
	bNode, bFrom  *Basis
	x             []float64
	depth         int
}

func (c *nodeChain) fork() *nodeChain {
	return &nodeChain{lo: slices.Clone(c.lo), up: slices.Clone(c.up), capLo: slices.Clone(c.capLo),
		bNode: c.bNode, bFrom: c.bFrom, x: c.x, depth: c.depth}
}

// checkAnchoredChain solves a random root, anchors it, and walks random
// chains of bound changes, interleaved: a chain forks now and then, and
// the chains advance in turn, so one workspace solves siblings and
// cousins one after another and the live tableau a node rebases from is
// usually another branch's. At every node it solves the child from
// both the basis the chain's previous SolveNode captured and the one
// its previous SolveFrom captured, each by SolveNode and by SolveFrom on
// the bounded problem. All four must agree with a cold solve of the
// bounded problem and with a cold solve of its row form on status and
// objective (1e-7), with a valid optimality certificate when optimal.
// A child whose bounds cross ends its chain: its row form must be
// infeasible, and SolveNode is not asked (its caller settles it).
func checkAnchoredChain(t *testing.T, rng *rand.Rand) chainStats {
	t.Helper()
	ctx := context.Background()
	var cs chainStats
	root := randomNodeRoot(rng)
	wn, wf := new(Workspace), new(Workspace)
	rs, err := wn.Solve(ctx, root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, up := boundsOf(root)
	if !wn.Anchor() {
		if rs.Status == Optimal {
			t.Fatalf("dense optimal root did not anchor")
		}
		if _, ok := wn.SolveNode(ctx, Options{}, lo, up, &Basis{}); ok {
			t.Fatalf("SolveNode accepted a node without an anchor (root %v)", rs.Status)
		}
		return cs
	}
	rootLo := slices.Clone(lo)
	b := wn.CaptureBasis(nil)
	chains := []*nodeChain{{lo: lo, up: up, capLo: slices.Clone(lo), bNode: b, bFrom: b, x: rs.X}}
	for step := 0; len(chains) > 0; step++ {
		k := step % len(chains)
		c := chains[k]
		if len(chains) < 4 && rng.Intn(3) == 0 {
			chains = append(chains, c.fork()) // a sibling of c's next node
		}
		end := func() { chains = slices.Delete(chains, k, k+1) }
		randomBound(rng, c.x, c.lo, c.up)
		c.depth++
		rows := rowForm(root, c.lo, c.up)
		want := solveCold(t, rows)
		crossed := false
		for j := range c.lo {
			crossed = crossed || c.lo[j] > c.up[j]
		}
		child := bounded(root, c.lo, c.up)
		if crossed {
			if want.Status != Infeasible {
				t.Fatalf("depth %d: crossing bounds but row form %v", c.depth, want.Status)
			}
			cs.crossed++
			end()
			continue
		}
		cold := solveCold(t, child)
		if cold.Status != want.Status || (want.Status == Optimal &&
			math.Abs(cold.Objective-want.Objective) > 1e-7*(1+math.Abs(want.Objective))) {
			t.Fatalf("depth %d: bounded cold %v %.12g, row form %v %.12g (child %+v)", c.depth, cold.Status, cold.Objective, want.Status, want.Objective, child)
		}
		if want.Status == Optimal {
			checkCertificates(t, "row form", rows, want)
		}
		type run struct {
			name  string
			sol   Solution
			basis *Basis
		}
		var runs []run
		for k, from := range []*Basis{c.bNode, c.bFrom} {
			sol, ok := wn.SolveNode(ctx, Options{}, c.lo, c.up, from)
			if from.sig == wn.anc.sig {
				cs.solves++
				if ok {
					cs.anchored++
					if wn.fromLive {
						cs.live++
					}
				}
			} else {
				// A basis SolveFrom captured (the only kind SolveNode
				// does not lay out as the anchor) has another layout only
				// when its lower bounds changed the sign of a row's
				// effective right-hand side. SolveNode must decline it.
				if !senseFlipped(root, rootLo, c.capLo) {
					t.Fatalf("depth %d: basis %d has another layout without a sense flip", c.depth, k)
				}
				if ok {
					t.Fatalf("depth %d: basis of another layout accepted", c.depth)
				}
				cs.relaid++
			}
			if ok {
				if sol.Stats.ColdPivots != 0 {
					t.Fatalf("depth %d: anchored solve ran %d cold pivots", c.depth, sol.Stats.ColdPivots)
				}
				// X and Duals are the workspace's buffers until its next
				// solve.
				sol.X, sol.Duals = slices.Clone(sol.X), slices.Clone(sol.Duals)
			} else {
				spent := sol.Stats.SimplexIters
				if sol, err = wn.SolveFrom(ctx, child, Options{}, from); err != nil {
					t.Fatal(err)
				}
				if spent > 0 {
					// The dual repair gave up at its backstop, and the
					// SolveFrom that followed solved cold rather than
					// repeat it from the same basis.
					if limit := dualRepairLimit(wn.anc.m, wn.anc.n); spent > limit {
						t.Fatalf("depth %d: declined after %d repair pivots, backstop %d", c.depth, spent, limit)
					}
					if sol.Stats.WarmPivots != 0 || sol.Stats.BasisPivots != 0 {
						t.Fatalf("depth %d: SolveFrom repeated a stalled warm start (%d warm, %d basis pivots)", c.depth, sol.Stats.WarmPivots, sol.Stats.BasisPivots)
					}
					cs.stalled++
				}
			}
			runs = append(runs, run{"node", sol, wn.CaptureBasis(nil)})
			sol, err = wf.SolveFrom(ctx, child, Options{}, from)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{"from", sol, wf.CaptureBasis(nil)})
		}
		for _, r := range runs {
			if r.sol.Status != want.Status {
				t.Fatalf("depth %d: %s status %v, row form %v (child %+v)", c.depth, r.name, r.sol.Status, want.Status, child)
			}
			if want.Status != Optimal {
				continue
			}
			if math.Abs(r.sol.Objective-want.Objective) > 1e-7*(1+math.Abs(want.Objective)) {
				t.Fatalf("depth %d: %s objective %.12g, row form %.12g (child %+v)", c.depth, r.name, r.sol.Objective, want.Objective, child)
			}
			checkCertificates(t, r.name, child, r.sol)
		}
		if want.Status != Optimal {
			if want.Status == Infeasible {
				cs.infeasible++
			}
			end()
			continue
		}
		c.bNode, c.bFrom, c.x = runs[0].basis, runs[3].basis, runs[0].sol.X
		copy(c.capLo, c.lo)
		if c.depth == 6 {
			end()
		}
	}
	return cs
}

// TestAnchoredNodeMatchesRebuild is the ground-truth property for the
// anchored node path: over random roots (boxes as rows or as variable
// bounds, degenerate roots included) and random interleaved chains of
// bound changes (infeasible and crossing children included), a node
// solved from the anchor or from the live tableau another branch left
// matches a cold solve of the bounded problem and of its row form, and
// bases captured by SolveNode and SolveFrom warm-start each other.
func TestAnchoredNodeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var total chainStats
	for trial := 0; trial < 400; trial++ {
		total.add(checkAnchoredChain(t, rng))
	}
	t.Logf("%d node solves from bases of the anchor's layout, %d anchored, %d of them from the live tableau; %d from SolveFrom bases of another layout; %d infeasible and %d crossing chains",
		total.solves, total.anchored, total.live, total.relaid, total.infeasible, total.crossed)
	if total.solves < 1000 || total.infeasible < 20 || total.crossed < 20 {
		t.Fatalf("generator too narrow: %d node solves, %d infeasible and %d crossing chains", total.solves, total.infeasible, total.crossed)
	}
	if total.anchored < total.solves*9/10 {
		t.Fatalf("anchored path declined %d of %d node solves", total.solves-total.anchored, total.solves)
	}
	if total.live < total.solves*3/10 {
		t.Fatalf("only %d of %d node solves started from the live tableau", total.live, total.solves)
	}
}

// FuzzAnchoredNode is TestAnchoredNodeMatchesRebuild as a fuzz target:
// `go test` runs the seed corpus, `go test -fuzz=FuzzAnchoredNode`
// explores.
func FuzzAnchoredNode(f *testing.F) {
	for _, s := range []int64{1, 7, 20, 42, 1234, -9} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAnchoredChain(t, rand.New(rand.NewSource(seed)))
	})
}

// forceDualRepairLimit sets the dual repair's stall backstop to k
// pivots until the returned function restores it.
func forceDualRepairLimit(k int) (restore func()) {
	old := dualRepairLimit
	dualRepairLimit = func(int, int) int { return k }
	return func() { dualRepairLimit = old }
}

// TestAnchoredNodeBackstop runs the anchored-node property with the
// dual repair's backstop at one pivot, so every node whose repair needs
// more gives the warm start up: SolveNode declines with the pivots it
// spent, and the node solved cold, as well as SolveFrom's own cold
// fallback from the same basis, must match the cold solves.
func TestAnchoredNodeBackstop(t *testing.T) {
	defer forceDualRepairLimit(1)()
	rng := rand.New(rand.NewSource(29))
	var total chainStats
	for trial := 0; trial < 200; trial++ {
		total.add(checkAnchoredChain(t, rng))
	}
	t.Logf("%d node solves, %d anchored, %d stalled", total.solves, total.anchored, total.stalled)
	if total.stalled < total.solves/20 {
		t.Fatalf("only %d of %d node solves reached the backstop", total.stalled, total.solves)
	}
}

// FuzzAnchoredNodeBackstop is TestAnchoredNodeBackstop as a fuzz
// target.
func FuzzAnchoredNodeBackstop(f *testing.F) {
	defer forceDualRepairLimit(1)()
	for _, s := range []int64{1, 7, 20, 42, 1234, -9} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAnchoredChain(t, rand.New(rand.NewSource(seed)))
	})
}

// TestSolveNodeDeclines pins the cases SolveNode must hand back to
// SolveFrom: a workspace with no anchor (none taken, taken after a
// non-optimal solve, or dropped by Release), and a basis that does not
// fit the anchor.
func TestSolveNodeDeclines(t *testing.T) {
	ctx := context.Background()
	root := &Problem{NumVars: 2, Objective: dense(3, 5)}
	root.AddRow(dense(1, 0), LE, 4)
	root.AddRow(dense(0, 2), LE, 12)
	root.AddRow(dense(3, 2), LE, 18)
	lo, up := boundsOf(root)
	up1 := []float64{1, math.Inf(1)}

	w := new(Workspace)
	if _, ok := w.SolveNode(ctx, Options{}, lo, up1, &Basis{}); ok {
		t.Fatal("fresh workspace: SolveNode accepted a node")
	}
	if s, err := w.Solve(ctx, root, Options{}); err != nil || s.Status != Optimal || !w.Anchor() {
		t.Fatalf("root: %v %v", s.Status, err)
	}
	b := w.CaptureBasis(nil)
	if s, ok := w.SolveNode(ctx, Options{}, lo, up1, b); !ok || s.Status != Optimal {
		t.Fatalf("plain bound change declined (ok=%v, %v)", ok, s.Status)
	}

	// A basis captured on another problem does not fit the anchor.
	other := withRows(root, []Constraint{{Coefs: dense(1, 1), Sense: GE, RHS: 1}})
	wo := new(Workspace)
	if s, _ := wo.Solve(ctx, other, Options{}); s.Status != Optimal {
		t.Fatalf("other: %v", s.Status)
	}
	if _, ok := w.SolveNode(ctx, Options{}, lo, up, wo.CaptureBasis(nil)); ok {
		t.Error("basis of another problem accepted")
	}
	if _, ok := w.SolveNode(ctx, Options{}, lo, up, nil); ok {
		t.Error("nil basis accepted")
	}
	// A basis of the same rows under another layout: the lower bound on
	// y turns x + y >= 1 into an LE row and -x + y <= 1 into a GE row,
	// so the column count is the same but the columns mean other things.
	flip := &Problem{NumVars: 2, Objective: dense(-1, -1)}
	flip.AddRow(dense(1, 1), GE, 1)
	flip.AddRow(dense(-1, 1), LE, 1)
	wf := new(Workspace)
	if s, _ := wf.Solve(ctx, flip, Options{}); s.Status != Optimal || !wf.Anchor() {
		t.Fatalf("flip root: %v", s.Status)
	}
	shifted := *flip
	shifted.Lower, shifted.Upper = []float64{0, 3}, []float64{math.Inf(1), math.Inf(1)}
	ws := new(Workspace)
	if s, _ := ws.Solve(ctx, &shifted, Options{}); s.Status != Optimal {
		t.Fatalf("shifted: %v", s.Status)
	}
	if sb := ws.CaptureBasis(nil); sb.n != wf.anc.n {
		t.Fatalf("layouts differ in width (%d vs %d); the case needs equal widths", sb.n, wf.anc.n)
	} else if _, ok := wf.SolveNode(ctx, Options{}, shifted.Lower, shifted.Upper, sb); ok {
		t.Error("basis of another layout with the same width accepted")
	}

	// Anchoring after a solve that did not end optimal drops the anchor.
	infeasible := withRows(root, []Constraint{{Coefs: dense(1, 0), Sense: GE, RHS: 5}})
	if s, _ := w.Solve(ctx, infeasible, Options{}); s.Status != Infeasible || w.Anchor() {
		t.Fatalf("infeasible solve anchored (status %v)", s.Status)
	}
	if _, ok := w.SolveNode(ctx, Options{}, lo, up1, b); ok {
		t.Error("dropped anchor still used")
	}
	// And Release.
	if _, _ = w.Solve(ctx, root, Options{}); !w.Anchor() {
		t.Fatal("re-anchor failed")
	}
	w.Release()
	if _, ok := w.SolveNode(ctx, Options{}, lo, up1, b); ok {
		t.Error("released workspace kept its anchor")
	}
}

// withRows is p with extra rows appended.
func withRows(p *Problem, more []Constraint) *Problem {
	q := &Problem{NumVars: p.NumVars, Objective: p.Objective, Lower: p.Lower, Upper: p.Upper}
	q.Rows = append(append(q.Rows, p.Rows...), more...)
	return q
}

// TestSolveNodeBudgetAndCancel keeps SolveFrom's rules on the anchored
// path: MaxIter bounds the pivots of the whole solve, and an expired
// context gets no pivot at all.
func TestSolveNodeBudgetAndCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	checked := 0
	for trial := 0; trial < 200; trial++ {
		root := randomNodeRoot(rng)
		w := new(Workspace)
		rs, err := w.Solve(context.Background(), root, Options{})
		if err != nil || !w.Anchor() {
			continue
		}
		b := w.CaptureBasis(nil)
		lo, up := boundsOf(root)
		randomBound(rng, rs.X, lo, up)
		full, ok := w.SolveNode(context.Background(), Options{}, lo, up, b)
		if !ok {
			continue
		}
		for budget := 1; budget < full.Stats.SimplexIters; budget++ {
			checked++
			sol, ok := w.SolveNode(context.Background(), Options{MaxIter: budget}, lo, up, b)
			if !ok || sol.Stats.SimplexIters > budget || sol.Status != IterLimit {
				t.Fatalf("trial %d budget %d: ok=%v status %v after %d pivots", trial, budget, ok, sol.Status, sol.Stats.SimplexIters)
			}
		}
		sol, ok := w.SolveNode(cancelled, Options{}, lo, up, b)
		if !ok || sol.Status != IterLimit || sol.Stats.SimplexIters != 0 || sol.Stats.Stop != solve.Cancelled {
			t.Fatalf("trial %d: cancelled solve ok=%v status %v pivots %d stop %v", trial, ok, sol.Status, sol.Stats.SimplexIters, sol.Stats.Stop)
		}
	}
	if checked == 0 {
		t.Fatal("no trial needed more than one pivot")
	}
}

// twinProblems draws two packing LPs (positive <= rows over boxed
// variables) with one layout: nv variables, m rows, the same sparsity,
// senses and boxes, over other coefficients, right-hand sides and
// objectives. A basis of either has the other's shape and layout
// signature, and x = 0 is feasible under any bounds with lower bound 0.
func twinProblems(rng *rand.Rand, nv, m int) (a, b *Problem) {
	pattern := make([][]bool, m)
	for i := range pattern {
		pattern[i] = make([]bool, nv)
		for j := range pattern[i] {
			pattern[i][j] = rng.Intn(3) > 0
		}
		pattern[i][rng.Intn(nv)] = true
	}
	draw := func() *Problem {
		p := &Problem{NumVars: nv, Lower: make([]float64, nv), Upper: make([]float64, nv)}
		for j := 0; j < nv; j++ {
			p.Objective = append(p.Objective, Coef{Var: j, Val: 0.5 + rng.Float64()*3})
			p.Upper[j] = 5
		}
		for _, row := range pattern {
			var cs []Coef
			for j, on := range row {
				if on {
					cs = append(cs, Coef{Var: j, Val: 0.3 + rng.Float64()*2})
				}
			}
			p.AddRow(cs, LE, 1+rng.Float64()*8)
		}
		return p
	}
	return draw(), draw()
}

// childBounds draws a non-crossing child of the root p whose relaxation
// is at x.
func childBounds(rng *rand.Rand, p *Problem, x []float64) (lo, up []float64) {
	for {
		lo, up = boundsOf(p)
		randomBound(rng, x, lo, up)
		crossed := false
		for j := range lo {
			crossed = crossed || lo[j] > up[j]
		}
		if !crossed {
			return lo, up
		}
	}
}

// checkNode solves a node of the anchored problem p by SolveNode and
// holds it to a cold solve of p under the node's bounds.
func checkNode(t *testing.T, tag string, w *Workspace, p *Problem, lo, up []float64, from *Basis) Solution {
	t.Helper()
	sol, ok := w.SolveNode(context.Background(), Options{}, lo, up, from)
	if !ok {
		t.Fatalf("%s: SolveNode declined", tag)
	}
	child := bounded(p, lo, up)
	want := solveCold(t, child)
	if sol.Status != want.Status {
		t.Fatalf("%s: status %v, cold %v (child %+v)", tag, sol.Status, want.Status, child)
	}
	if want.Status == Optimal {
		if math.Abs(sol.Objective-want.Objective) > 1e-7*(1+math.Abs(want.Objective)) {
			t.Fatalf("%s: objective %.12g, cold %.12g (child %+v)", tag, sol.Objective, want.Objective, child)
		}
		checkCertificates(t, tag, child, sol)
	}
	return sol
}

// TestLiveTableauIsolation alternates the anchors of two problems of one
// layout in one pooled workspace. The live tableau a node may rebase
// from must always be the anchored problem's: after a solve of the other
// problem, the next node must decline the live source and start from
// the anchor, and after Release no node may run at all.
func TestLiveTableauIsolation(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	declined, checked := 0, 0
	for trial := 0; trial < 200; trial++ {
		pa, pb := twinProblems(rng, 3+rng.Intn(4), 2+rng.Intn(4))
		w := AcquireWorkspace()
		ra, err := w.Solve(ctx, pa, Options{})
		if err != nil || ra.Status != Optimal || !w.Anchor() {
			w.Release()
			continue
		}
		ba := w.CaptureBasis(nil)
		xa := slices.Clone(ra.X)
		loA, upA := childBounds(rng, pa, xa)
		checkNode(t, "A node", w, pa, loA, upA, ba)

		rb, err := w.Solve(ctx, pb, Options{})
		if err != nil || rb.Status != Optimal || !w.Anchor() {
			w.Release()
			continue
		}
		if ba.sig != w.anc.sig || ba.n != w.anc.n || ba.m != w.anc.m {
			t.Fatalf("trial %d: twins differ in layout", trial)
		}
		checked++
		bb := w.CaptureBasis(nil)
		loB, upB := childBounds(rng, pb, rb.X)
		checkNode(t, "B node after anchoring B", w, pb, loB, upB, bb)

		// A solve of A leaves A's tableau in place, of B's layout; the
		// next B node must not rebase from it.
		if _, err := w.SolveFrom(ctx, bounded(pa, loA, upA), Options{}, ba); err != nil {
			t.Fatal(err)
		}
		checkNode(t, "B node after an A solve", w, pb, loB, upB, bb)
		if w.fromLive {
			t.Fatalf("trial %d: B node rebased from A's tableau", trial)
		}
		declined++
		bn := w.CaptureBasis(nil)
		loC, upC := childBounds(rng, pb, rb.X)
		checkNode(t, "B node after a B node", w, pb, loC, upC, bn)
		if !w.fromLive {
			t.Fatalf("trial %d: a child of the last B node did not rebase from its live tableau", trial)
		}

		w.Release()
		w = AcquireWorkspace()
		if _, ok := w.SolveNode(ctx, Options{}, loB, upB, bb); ok {
			t.Fatalf("trial %d: node solved after Release", trial)
		}
		declined++
		w.Release()
	}
	t.Logf("%d twin pairs, live source declined %d times", checked, declined)
	if checked < 100 {
		t.Fatalf("only %d of 200 twin pairs solved to optimality", checked)
	}
}

// TestLiveTableauLongRun walks one anchor through hundreds of nodes, each
// solved from the basis of the node before under bounds tightened,
// loosened or reset, so
// every node rebases from the live tableau and roundoff is never reset
// by a copy of the anchor. Every node must still match a cold solve.
func TestLiveTableauLongRun(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	root, _ := twinProblems(rng, 10, 8)
	w := new(Workspace)
	rs, err := w.Solve(ctx, root, Options{})
	if err != nil || !w.Anchor() {
		t.Fatalf("root: %v %v", rs.Status, err)
	}
	from, x := w.CaptureBasis(nil), slices.Clone(rs.X)
	lo, up := boundsOf(root)
	run, best := 0, 0
	for step := 0; step < 300; step++ {
		// No bound ever fixes a variable: a fixed column prices at any
		// reduced cost, so loosening it later could leave the parent basis
		// dual infeasible, and SolveNode would rightly decline.
		j := rng.Intn(root.NumVars)
		switch rng.Intn(6) {
		case 0:
			lo, up = boundsOf(root)
		case 1:
			up[j] = float64(1 + rng.Intn(5))
		default:
			up[j] = math.Max(1, math.Floor(x[j]+1e-9))
		}
		sol := checkNode(t, "long run", w, root, lo, up, from)
		if sol.Status != Optimal {
			t.Fatalf("step %d: node %v, but x = 0 is feasible", step, sol.Status)
		}
		if w.fromLive {
			run++
		} else {
			run = 0
		}
		best = max(best, run)
		x = slices.Clone(sol.X)
		from = w.CaptureBasis(from)
	}
	t.Logf("longest run of live-sourced node solves: %d of 300", best)
	if best < 200 {
		t.Fatalf("longest run of live-sourced node solves is %d, want >= 200", best)
	}
}

// TestSolveNodeAllocationFree pins the steady state of a branch-and-bound
// node: solving it, from either source, allocates nothing.
func TestSolveNodeAllocationFree(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		root := randomNodeRoot(rng)
		w := new(Workspace)
		rs, err := w.Solve(ctx, root, Options{})
		if err != nil || !w.Anchor() {
			continue
		}
		b := w.CaptureBasis(nil)
		lo1, up1 := childBounds(rng, root, rs.X)
		lo2, up2 := childBounds(rng, root, rs.X)
		for i := 0; i < 3; i++ { // size the buffers
			w.SolveNode(ctx, Options{}, lo1, up1, b)
			w.SolveNode(ctx, Options{}, lo2, up2, b)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, ok := w.SolveNode(ctx, Options{}, lo1, up1, b); !ok {
				t.Fatal("node declined")
			}
			if _, ok := w.SolveNode(ctx, Options{}, lo2, up2, b); !ok {
				t.Fatal("node declined")
			}
		})
		if allocs != 0 {
			t.Fatalf("trial %d: %v allocations per pair of node solves", trial, allocs)
		}
	}
}
