package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// solveCold is a cold reference solve in a fresh workspace.
func solveCold(t *testing.T, p *Problem) Solution {
	t.Helper()
	s, err := new(Workspace).Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	return s
}

// withBound is p with variable j's bounds replaced by [lo, up]; the
// other variables keep theirs.
func withBound(p *Problem, j int, lo, up float64) *Problem {
	q := &Problem{NumVars: p.NumVars, Objective: p.Objective, Rows: p.Rows}
	q.Lower, q.Upper = make([]float64, p.NumVars), make([]float64, p.NumVars)
	for k := range q.Lower {
		q.Lower[k], q.Upper[k] = p.bound(k)
	}
	q.Lower[j], q.Upper[j] = lo, up
	return q
}

// TestWarmStartAddedBoundRow is the branch-and-bound down-branch shape:
// solve the parent, capture its basis, tighten one upper bound
// x_j <= v, and re-solve warm. The warm solve must agree with a cold
// solve of the child to high precision and must do its work in warm
// (dual-simplex) pivots, not a fresh two-phase run.
func TestWarmStartAddedBoundRow(t *testing.T) {
	parent := &Problem{NumVars: 2, Objective: dense(3, 5)}
	parent.AddRow(dense(1, 0), LE, 4)
	parent.AddRow(dense(0, 2), LE, 12)
	parent.AddRow(dense(3, 2), LE, 18)

	w := new(Workspace)
	ps, err := w.Solve(context.Background(), parent, Options{})
	if err != nil || ps.Status != Optimal {
		t.Fatalf("parent: %v %v", ps.Status, err)
	}
	basis := w.CaptureBasis(nil)

	child := withBound(parent, 1, 0, 5) // y <= 5 cuts off the optimum y=6

	warm, err := w.SolveFrom(context.Background(), child, Options{}, basis)
	if err != nil {
		t.Fatal(err)
	}
	cold := solveCold(t, child)
	if warm.Status != Optimal || cold.Status != Optimal {
		t.Fatalf("status warm=%v cold=%v", warm.Status, cold.Status)
	}
	if !almostEq(warm.Objective, cold.Objective, 1e-9) {
		t.Fatalf("objective warm=%v cold=%v", warm.Objective, cold.Objective)
	}
	if warm.Stats.ColdPivots != 0 {
		t.Fatalf("warm solve ran %d cold pivots (fell back)", warm.Stats.ColdPivots)
	}
	if warm.Stats.WarmPivots >= cold.Stats.SimplexIters {
		t.Fatalf("warm start not cheaper: %d warm pivots vs %d cold",
			warm.Stats.WarmPivots, cold.Stats.SimplexIters)
	}
}

// TestWarmStartAddedGERow is the up-branch shape (x_j >= v): a raised
// lower bound puts a basic variable below it, and the dual simplex
// repairs the parent basis.
func TestWarmStartAddedGERow(t *testing.T) {
	parent := &Problem{NumVars: 3, Objective: dense(2, 3, 1)}
	parent.AddRow(dense(1, 1, 1), LE, 10)
	parent.AddRow(dense(1, 2, 0), LE, 8)
	parent.AddRow(dense(0, 1, 3), LE, 9)

	w := new(Workspace)
	ps, err := w.Solve(context.Background(), parent, Options{})
	if err != nil || ps.Status != Optimal {
		t.Fatalf("parent: %v %v", ps.Status, err)
	}
	basis := w.CaptureBasis(nil)

	child := withBound(parent, 2, 2, math.Inf(1)) // force z up from its relaxed value

	warm, err := w.SolveFrom(context.Background(), child, Options{}, basis)
	if err != nil {
		t.Fatal(err)
	}
	cold := solveCold(t, child)
	if warm.Status != cold.Status {
		t.Fatalf("status warm=%v cold=%v", warm.Status, cold.Status)
	}
	if !almostEq(warm.Objective, cold.Objective, 1e-9) {
		t.Fatalf("objective warm=%v cold=%v", warm.Objective, cold.Objective)
	}
	if warm.Stats.ColdPivots != 0 {
		t.Fatalf("warm solve fell back to cold (%d cold pivots)", warm.Stats.ColdPivots)
	}
}

// TestWarmStartInfeasibleChild: conflicting branch bounds must be
// detected as infeasible by the dual simplex, matching the cold path.
func TestWarmStartInfeasibleChild(t *testing.T) {
	parent := &Problem{NumVars: 2, Objective: dense(1, 1)}
	parent.AddRow(dense(1, 1), LE, 4)
	parent.AddRow(dense(1, 0), LE, 2)

	w := new(Workspace)
	if s, err := w.Solve(context.Background(), parent, Options{}); err != nil || s.Status != Optimal {
		t.Fatalf("parent: %v %v", s.Status, err)
	}
	basis := w.CaptureBasis(nil)

	child := withBound(parent, 0, 3, math.Inf(1)) // contradicts x <= 2

	warm, err := w.SolveFrom(context.Background(), child, Options{}, basis)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", warm.Status)
	}
}

// TestWarmStartAddedColumns is the CG master shape: new structural
// variables (patterns) appear with fresh coefficients in existing rows;
// the old basis stays primal feasible with the new columns nonbasic at
// zero, so a warm primal re-solve from the old vertex must match cold.
func TestWarmStartAddedColumns(t *testing.T) {
	p1 := &Problem{NumVars: 2, Objective: dense(4, 3)}
	p1.AddRow(dense(2, 1), LE, 10)
	p1.AddRow(dense(1, 3), LE, 15)

	w := new(Workspace)
	s1, err := w.Solve(context.Background(), p1, Options{})
	if err != nil || s1.Status != Optimal {
		t.Fatalf("round 1: %v %v", s1.Status, err)
	}
	basis := w.CaptureBasis(nil)

	// Round 2: one new column with a strictly positive reduced cost so
	// the warm solve actually has to pivot it in.
	p2 := &Problem{NumVars: 3, Objective: dense(4, 3, 6)}
	p2.AddRow(dense(2, 1, 1), LE, 10)
	p2.AddRow(dense(1, 3, 2), LE, 15)

	warm, err := w.SolveFrom(context.Background(), p2, Options{}, basis)
	if err != nil {
		t.Fatal(err)
	}
	cold := solveCold(t, p2)
	if warm.Status != Optimal || !almostEq(warm.Objective, cold.Objective, 1e-9) {
		t.Fatalf("warm=%v obj %v; cold obj %v", warm.Status, warm.Objective, cold.Objective)
	}
	if warm.Stats.ColdPivots != 0 {
		t.Fatalf("warm solve fell back to cold (%d cold pivots)", warm.Stats.ColdPivots)
	}
	for i := range cold.Duals {
		if !almostEq(warm.Duals[i], cold.Duals[i], 1e-9) {
			t.Fatalf("duals warm=%v cold=%v", warm.Duals, cold.Duals)
		}
	}
}

// TestWarmStartBadBasisFallsBack: a basis that cannot possibly fit the
// problem (wrong dimensions) must silently fall back to a cold solve
// and still return the right answer.
func TestWarmStartBadBasisFallsBack(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: dense(3, 2)}
	p.AddRow(dense(1, 1), LE, 4)
	p.AddRow(dense(1, 3), LE, 6)

	w := new(Workspace)
	bogus := &Basis{cols: []int{0, 1, 2, 3, 4}, m: 5, nStruc: 9, n: 12}
	s, err := w.SolveFrom(context.Background(), p, Options{}, bogus)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !almostEq(s.Objective, 12, 1e-7) {
		t.Fatalf("got %v obj %v", s.Status, s.Objective)
	}
	if s.Stats.WarmPivots != 0 || s.Stats.ColdPivots == 0 {
		t.Fatalf("expected pure cold fallback, got warm=%d cold=%d",
			s.Stats.WarmPivots, s.Stats.ColdPivots)
	}
}

// TestWarmStartKeptArtificialRejected: a basis that keeps the
// artificial of a redundant equality basic does not fit a problem of
// the same shape whose right-hand sides make that row inconsistent. The
// warm path must not report the artificial's nonzero value as a
// feasible point; it falls back and finds the problem infeasible.
func TestWarmStartKeptArtificialRejected(t *testing.T) {
	parent := &Problem{NumVars: 2, Objective: dense(2, 3)}
	parent.AddRow(dense(1, 1), EQ, 4)
	parent.AddRow(dense(1, 1), EQ, 4)
	w := new(Workspace)
	if s, err := w.Solve(context.Background(), parent, Options{}); err != nil || s.Status != Optimal {
		t.Fatalf("parent: %v %v", s.Status, err)
	}
	basis := w.CaptureBasis(nil)
	child := &Problem{NumVars: 2, Objective: parent.Objective}
	child.AddRow(dense(1, 1), EQ, 4)
	child.AddRow(dense(1, 1), EQ, 5)
	s, err := w.SolveFrom(context.Background(), child, Options{}, basis)
	if err != nil || s.Status != Infeasible {
		t.Fatalf("got %v %v, want Infeasible", s.Status, err)
	}
}

// TestWorkspaceReuse runs problems of different shapes and sizes through
// one workspace back to back; every solve must match a fresh solve, i.e.
// no state may leak between solves through the recycled arrays.
func TestWorkspaceReuse(t *testing.T) {
	w := new(Workspace)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nv := 1 + rng.Intn(6)
		nr := 1 + rng.Intn(6)
		p := &Problem{NumVars: nv}
		for j := 0; j < nv; j++ {
			p.Objective = append(p.Objective, Coef{Var: j, Val: rng.Float64()*4 - 1})
		}
		for i := 0; i < nr; i++ {
			var cs []Coef
			for j := 0; j < nv; j++ {
				cs = append(cs, Coef{Var: j, Val: rng.Float64()*2 - 0.5})
			}
			p.AddRow(cs, Sense(rng.Intn(2)), rng.Float64()*5) // LE or GE
		}
		// Box constraints keep everything bounded.
		for j := 0; j < nv; j++ {
			p.AddRow([]Coef{{Var: j, Val: 1}}, LE, 10)
		}
		got, err := w.Solve(context.Background(), p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := solveCold(t, p)
		if got.Status != want.Status {
			t.Fatalf("trial %d: status %v vs fresh %v", trial, got.Status, want.Status)
		}
		if got.Status == Optimal && !almostEq(got.Objective, want.Objective, 1e-7) {
			t.Fatalf("trial %d: objective %v vs fresh %v", trial, got.Objective, want.Objective)
		}
	}
}

// TestWarmMatchesColdRandom is the warm-start soundness property at the
// LP level: for random bounded LPs and a random tightened bound, the
// warm-started child solve agrees with the cold child solve.
func TestWarmMatchesColdRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := new(Workspace)
	tested := 0
	for trial := 0; trial < 200 && tested < 120; trial++ {
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
		ps, err := w.Solve(context.Background(), p, Options{})
		if err != nil || ps.Status != Optimal {
			continue
		}
		basis := w.CaptureBasis(nil)

		j := rng.Intn(nv)
		child := withBound(p, j, 0, math.Floor(ps.X[j]))
		if rng.Intn(2) == 0 {
			child = withBound(p, j, math.Floor(ps.X[j])+1, math.Inf(1))
		}
		warm, err := w.SolveFrom(context.Background(), child, Options{}, basis)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cold := solveCold(t, child)
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: status warm=%v cold=%v", trial, warm.Status, cold.Status)
		}
		if warm.Status == Optimal && !almostEq(warm.Objective, cold.Objective, 1e-6) {
			t.Fatalf("trial %d: objective warm=%v cold=%v", trial, warm.Objective, cold.Objective)
		}
		tested++
	}
	if tested < 50 {
		t.Fatalf("only %d usable trials; generator too restrictive", tested)
	}
}

// TestDualsRedundantRowNeutralized: a linearly dependent constraint set
// leaves one artificial basic after expelArtificials; the dependent
// row's dual must read exactly 0 (not reduced-cost roundoff), because CG
// pricing consumes these duals at a 1e-7 tolerance.
func TestDualsRedundantRowNeutralized(t *testing.T) {
	// Duplicate the equality row of TestDualsEqualityRow. The two copies
	// share one true dual (3); the redundant copy must read exactly 0 and
	// the other must carry the full value.
	p := &Problem{NumVars: 2, Objective: dense(2, 3)}
	p.AddRow(dense(1, 1), EQ, 4)
	p.AddRow(dense(1, 1), EQ, 4)
	p.AddRow(dense(1, 0), LE, 3)
	s := mustSolve(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, 12, 1e-7) {
		t.Fatalf("got %v obj %v", s.Status, s.Objective)
	}
	zero, carry := 0, -1
	for i := 0; i < 2; i++ {
		if s.Duals[i] == 0 {
			zero++
		} else {
			carry = i
		}
	}
	if zero != 1 || carry < 0 {
		t.Fatalf("duals of duplicate rows = [%v %v]; want exactly one hard 0",
			s.Duals[0], s.Duals[1])
	}
	if !almostEq(s.Duals[carry], 3, 1e-7) {
		t.Fatalf("surviving dual = %v, want 3", s.Duals[carry])
	}
}

// TestDualsDependentCombination: a row that is the sum of two others
// (not a plain duplicate) must also be neutralized.
func TestDualsDependentCombination(t *testing.T) {
	p := &Problem{NumVars: 3, Objective: dense(1, 2, 3)}
	p.AddRow(dense(1, 1, 0), EQ, 3)
	p.AddRow(dense(0, 1, 1), EQ, 4)
	p.AddRow(dense(1, 2, 1), EQ, 7) // = row0 + row1
	s := mustSolve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	// x+y=3, y+z=4 with max x+2y+3z -> y=0? maximize z: z=4, y=0, x=3.
	if !almostEq(s.Objective, 15, 1e-7) {
		t.Fatalf("objective = %v, want 15", s.Objective)
	}
	hardZero := false
	for i := 0; i < 3; i++ {
		if s.Duals[i] == 0 {
			hardZero = true
		}
	}
	if !hardZero {
		t.Fatalf("no dependent row neutralized: duals = %v", s.Duals)
	}
	// Duals must still certify optimality: c_j <= sum_i duals_i * a_ij
	// for structural variables at their bounds is covered by the LP
	// property tests; here check complementary pricing of the solution:
	// dual objective equals primal objective.
	dualObj := 0.0
	for i, r := range p.Rows {
		dualObj += r.RHS * s.Duals[i]
	}
	if !almostEq(dualObj, s.Objective, 1e-6) {
		t.Fatalf("strong duality violated: dual obj %v vs primal %v (duals %v)",
			dualObj, s.Objective, s.Duals)
	}
}

// TestAcquireRelease exercises the pool wrapper end to end.
func TestAcquireRelease(t *testing.T) {
	for i := 0; i < 3; i++ {
		w := AcquireWorkspace()
		p := &Problem{NumVars: 1, Objective: dense(1)}
		p.AddRow(dense(1), LE, float64(i+1))
		s, err := w.Solve(context.Background(), p, Options{})
		if err != nil || s.Status != Optimal || !almostEq(s.Objective, float64(i+1), 1e-9) {
			t.Fatalf("i=%d: %v %v %v", i, s.Status, s.Objective, err)
		}
		w.Release()
	}
}
