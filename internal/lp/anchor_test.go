package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/cloudsched/rasa/internal/solve"
)

// randomNodeRoot draws a branch-and-bound root relaxation: either the
// TestWarmMatchesColdRandom shape (positive LE rows over boxed
// variables) or randomMixedLP's integer, degenerate, mixed-sense rows
// with boxes added so the root stays bounded.
func randomNodeRoot(rng *rand.Rand) *Problem {
	if rng.Intn(2) == 0 {
		p := randomMixedLP(rng)
		for j := 0; j < p.NumVars; j++ {
			p.AddRow([]Coef{{Var: j, Val: 1}}, LE, float64(2+rng.Intn(6)))
		}
		return p
	}
	nv := 2 + rng.Intn(5)
	p := &Problem{NumVars: nv}
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
	for j := 0; j < nv; j++ {
		p.AddRow([]Coef{{Var: j, Val: 1}}, LE, 10)
	}
	return p
}

// randomBound draws the next branching row for a node whose relaxation
// is at x: mostly the down or up branch on a variable, sometimes an
// arbitrary bound, which makes infeasible children common.
func randomBound(rng *rand.Rand, x []float64) Constraint {
	j := rng.Intn(len(x))
	v := math.Floor(x[j] + 1e-9)
	switch rng.Intn(5) {
	case 0, 1:
		return Constraint{Coefs: []Coef{{Var: j, Val: 1}}, Sense: LE, RHS: math.Max(v-float64(rng.Intn(2)), 0)}
	case 2, 3:
		return Constraint{Coefs: []Coef{{Var: j, Val: 1}}, Sense: GE, RHS: v + 1}
	}
	return Constraint{Coefs: []Coef{{Var: j, Val: float64(1 + rng.Intn(2))}}, Sense: Sense(rng.Intn(2)), RHS: float64(rng.Intn(9))}
}

// withRows is p with extra rows appended.
func withRows(p *Problem, extra []Constraint) *Problem {
	q := &Problem{NumVars: p.NumVars, Objective: p.Objective}
	q.Rows = append(append(q.Rows, p.Rows...), extra...)
	return q
}

// chainStats counts what one anchored chain exercised.
type chainStats struct {
	solves, anchored, infeasible int
}

// checkAnchoredChain solves a random root, anchors it, and walks a
// random chain of bound rows. At every node it solves the child four
// ways — SolveNode and SolveFrom, each from the basis the previous
// SolveNode and the previous SolveFrom captured — and requires all four
// to agree on status and objective, with a valid optimality certificate
// when optimal.
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
	if !wn.Anchor() {
		if rs.Status == Optimal {
			t.Fatalf("dense optimal root did not anchor")
		}
		if _, ok := wn.SolveNode(ctx, Options{}, []Constraint{{Coefs: []Coef{{Var: 0, Val: 1}}, Sense: LE}}, &Basis{}); ok {
			t.Fatalf("SolveNode accepted a node without an anchor (root %v)", rs.Status)
		}
		return cs
	}
	bNode := wn.CaptureBasis(nil)
	bFrom := bNode
	x := rs.X
	var chain []Constraint
	for depth := 0; depth < 6; depth++ {
		chain = append(chain, randomBound(rng, x))
		child := withRows(root, chain)
		type run struct {
			name  string
			sol   Solution
			basis *Basis
		}
		var runs []run
		for _, from := range []*Basis{bNode, bFrom} {
			sol, ok := wn.SolveNode(ctx, Options{}, chain, from)
			cs.solves++
			if ok {
				cs.anchored++
				if sol.Stats.ColdPivots != 0 {
					t.Fatalf("depth %d: anchored solve ran %d cold pivots", depth, sol.Stats.ColdPivots)
				}
			} else if sol, err = wn.SolveFrom(ctx, child, Options{}, from); err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{"node", sol, wn.CaptureBasis(nil)})
			sol, err = wf.SolveFrom(ctx, child, Options{}, from)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{"from", sol, wf.CaptureBasis(nil)})
		}
		want := runs[3].sol // SolveFrom from its own basis: the rebuild path
		for _, r := range runs {
			if r.sol.Status != want.Status {
				t.Fatalf("depth %d: %s status %v, rebuild %v (child %+v)", depth, r.name, r.sol.Status, want.Status, child)
			}
			if want.Status != Optimal {
				continue
			}
			if math.Abs(r.sol.Objective-want.Objective) > 1e-7*(1+math.Abs(want.Objective)) {
				t.Fatalf("depth %d: %s objective %.12g, rebuild %.12g (child %+v)", depth, r.name, r.sol.Objective, want.Objective, child)
			}
			checkCertificates(t, r.name, child, r.sol)
		}
		if want.Status != Optimal {
			if want.Status == Infeasible {
				cs.infeasible++
			}
			return cs
		}
		bNode, bFrom, x = runs[0].basis, runs[3].basis, runs[0].sol.X
	}
	return cs
}

// TestAnchoredNodeMatchesRebuild is the differential property for the
// anchored node path: over random roots and random chains of LE/GE
// bound rows (infeasible children and degenerate roots included), a
// node solved from the anchor matches the rebuilt problem's warm solve,
// and bases captured on either path warm-start the other.
func TestAnchoredNodeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var total chainStats
	for trial := 0; trial < 400; trial++ {
		cs := checkAnchoredChain(t, rng)
		total.solves += cs.solves
		total.anchored += cs.anchored
		total.infeasible += cs.infeasible
	}
	if total.solves < 500 || total.infeasible < 20 {
		t.Fatalf("generator too narrow: %d node solves, %d infeasible chains", total.solves, total.infeasible)
	}
	if total.anchored < total.solves*9/10 {
		t.Fatalf("anchored path declined %d of %d node solves", total.solves-total.anchored, total.solves)
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

// TestSolveNodeDeclines pins the cases SolveNode must hand back to
// SolveFrom: rows that are not single-variable LE/GE bounds with a
// non-negative right-hand side, a basis of the wrong layout, and a
// workspace with no anchor (none taken, taken after a non-optimal or a
// sparse solve, or dropped by Release).
func TestSolveNodeDeclines(t *testing.T) {
	ctx := context.Background()
	root := &Problem{NumVars: 2, Objective: dense(3, 5)}
	root.AddRow(dense(1, 0), LE, 4)
	root.AddRow(dense(0, 2), LE, 12)
	root.AddRow(dense(3, 2), LE, 18)
	x0 := func(s Sense, rhs float64) Constraint {
		return Constraint{Coefs: []Coef{{Var: 0, Val: 1}}, Sense: s, RHS: rhs}
	}

	w := new(Workspace)
	if _, ok := w.SolveNode(ctx, Options{}, []Constraint{x0(LE, 1)}, &Basis{}); ok {
		t.Fatal("fresh workspace: SolveNode accepted a node")
	}
	if s, err := w.Solve(ctx, root, Options{}); err != nil || s.Status != Optimal || !w.Anchor() {
		t.Fatalf("root: %v %v", s.Status, err)
	}
	b := w.CaptureBasis(nil)
	if _, ok := w.SolveNode(ctx, Options{}, []Constraint{x0(LE, 1)}, b); !ok {
		t.Fatal("plain bound row declined")
	}
	for name, row := range map[string]Constraint{
		"EQ":           x0(EQ, 1),
		"negative RHS": x0(LE, -1),
		"two coefs":    {Coefs: dense(1, 1), Sense: LE, RHS: 3},
		"no coefs":     {Sense: LE, RHS: 3},
		"bad var":      {Coefs: []Coef{{Var: 2, Val: 1}}, Sense: LE, RHS: 3},
		"zero coef":    {Coefs: []Coef{{Var: 1, Val: 0}}, Sense: LE, RHS: 3},
		"NaN RHS":      x0(LE, math.NaN()),
	} {
		if _, ok := w.SolveNode(ctx, Options{}, []Constraint{x0(LE, 2), row}, b); ok {
			t.Errorf("%s row accepted", name)
		}
	}
	// A basis captured under a GE chain does not fit an LE chain.
	if _, ok := w.SolveNode(ctx, Options{}, []Constraint{x0(GE, 1)}, b); !ok {
		t.Fatal("GE bound row declined")
	}
	ge := w.CaptureBasis(nil)
	if _, ok := w.SolveNode(ctx, Options{}, []Constraint{x0(LE, 3), x0(LE, 2)}, ge); ok {
		t.Error("basis of a different layout accepted")
	}
	if _, ok := w.SolveNode(ctx, Options{Kernel: KernelSparse}, []Constraint{x0(LE, 1)}, b); ok {
		t.Error("node routed to the sparse kernel accepted")
	}

	// Anchoring after a solve that did not end optimal drops the anchor.
	infeasible := withRows(root, []Constraint{x0(GE, 5)})
	if s, _ := w.Solve(ctx, infeasible, Options{}); s.Status != Infeasible || w.Anchor() {
		t.Fatalf("infeasible solve anchored (status %v)", s.Status)
	}
	if _, ok := w.SolveNode(ctx, Options{}, []Constraint{x0(LE, 1)}, b); ok {
		t.Error("dropped anchor still used")
	}
	// So does anchoring after a sparse solve.
	if s, _ := w.Solve(ctx, root, Options{Kernel: KernelSparse}); s.Status != Optimal || w.Anchor() {
		t.Fatalf("sparse solve anchored (status %v)", s.Status)
	}
	// And Release.
	if _, _ = w.Solve(ctx, root, Options{}); !w.Anchor() {
		t.Fatal("re-anchor failed")
	}
	w.Release()
	if _, ok := w.SolveNode(ctx, Options{}, []Constraint{x0(LE, 1)}, b); ok {
		t.Error("released workspace kept its anchor")
	}
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
		chain := []Constraint{randomBound(rng, rs.X)}
		full, ok := w.SolveNode(context.Background(), Options{}, chain, b)
		if !ok {
			continue
		}
		for budget := 1; budget < full.Stats.SimplexIters; budget++ {
			checked++
			sol, ok := w.SolveNode(context.Background(), Options{MaxIter: budget}, chain, b)
			if !ok || sol.Stats.SimplexIters > budget || sol.Status != IterLimit {
				t.Fatalf("trial %d budget %d: ok=%v status %v after %d pivots", trial, budget, ok, sol.Status, sol.Stats.SimplexIters)
			}
		}
		sol, ok := w.SolveNode(cancelled, Options{}, chain, b)
		if !ok || sol.Status != IterLimit || sol.Stats.SimplexIters != 0 || sol.Stats.Stop != solve.Cancelled {
			t.Fatalf("trial %d: cancelled solve ok=%v status %v pivots %d stop %v", trial, ok, sol.Status, sol.Stats.SimplexIters, sol.Stats.Stop)
		}
	}
	if checked == 0 {
		t.Fatal("no trial needed more than one pivot")
	}
}
