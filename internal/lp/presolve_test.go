package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestPresolveSingletonChain drives a chain of reductions — an upper
// bound, a lower bound that meets it, the resulting fixing substituted
// into a coupling row — and checks the reduced dimensions plus the
// postsolve round-trip (primal point, objective, and certified duals).
func TestPresolveSingletonChain(t *testing.T) {
	// max 3x + y  s.t.  2x <= 4, x >= 2 (fixes x=2), x + y <= 5.
	p := &Problem{NumVars: 2}
	p.Objective = []Coef{{Var: 0, Val: 3}, {Var: 1, Val: 1}}
	p.AddRow([]Coef{{Var: 0, Val: 2}}, LE, 4)
	p.AddRow([]Coef{{Var: 0, Val: 1}}, GE, 2)
	p.AddRow([]Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}, LE, 5)

	ps := newPresolver(p)
	if st := ps.run(); st != psOK {
		t.Fatalf("run() = %d, want psOK", st)
	}
	if !ps.fixed[0] || ps.fixVal[0] != 2 {
		t.Fatalf("x not fixed at 2: fixed=%v val=%g", ps.fixed[0], ps.fixVal[0])
	}
	var f spForm
	ps.form(&f)
	// The chain runs to the end: x=2 substituted turns the coupling row
	// into the singleton y <= 3, and the then-empty profitable column
	// fixes y at that bound. Nothing is left for the kernel.
	if f.n != 0 || f.m != 0 {
		t.Fatalf("reduced to %d vars x %d rows, want 0x0", f.n, f.m)
	}

	w := AcquireWorkspace()
	defer w.Release()
	sol, err := w.Solve(context.Background(), p, Options{Kernel: KernelSparse})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-9) > 1e-9 {
		t.Fatalf("got %v obj=%g, want optimal 9", sol.Status, sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > 1e-9 || math.Abs(sol.X[1]-3) > 1e-9 {
		t.Fatalf("X = %v, want [2 3]", sol.X)
	}
	if rows, cols := w.Reduction(); rows != 3 || cols != 2 {
		t.Fatalf("Reduction() = (%d, %d), want (3, 2)", rows, cols)
	}
	checkCertificates(t, "chain", p, sol)
}

// TestPresolveInfeasibleBounds checks that crossing singleton bounds
// are caught inside presolve and reported as Infeasible by the solver.
func TestPresolveInfeasibleBounds(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: []Coef{{Var: 0, Val: 1}}}
	p.AddRow([]Coef{{Var: 0, Val: 1}}, LE, 1)
	p.AddRow([]Coef{{Var: 0, Val: 1}}, GE, 2)
	if st := newPresolver(p).run(); st != psInfeasible {
		t.Fatalf("presolve status %d, want psInfeasible", st)
	}
	for _, k := range []Kernel{KernelDense, KernelSparse} {
		if sol := solveWith(t, p, k); sol.Status != Infeasible {
			t.Fatalf("kernel %v: %v, want Infeasible", k, sol.Status)
		}
	}
}

// TestPresolveEmptyRow checks that rows whose coefficients cancel to
// nothing become pure feasibility checks.
func TestPresolveEmptyRow(t *testing.T) {
	mk := func(rhs float64, sense Sense) *Problem {
		p := &Problem{NumVars: 1, Objective: []Coef{{Var: 0, Val: -1}}}
		// Duplicate coefficients that cancel: the merged row is empty.
		p.AddRow([]Coef{{Var: 0, Val: 1}, {Var: 0, Val: -1}}, sense, rhs)
		p.AddRow([]Coef{{Var: 0, Val: 1}}, LE, 3)
		return p
	}
	if st := newPresolver(mk(-1, LE)).run(); st != psInfeasible {
		t.Fatalf("0 <= -1 accepted: status %d", st)
	}
	if st := newPresolver(mk(1, GE)).run(); st != psInfeasible {
		t.Fatalf("0 >= 1 accepted: status %d", st)
	}
	if st := newPresolver(mk(1, LE)).run(); st != psOK {
		t.Fatalf("0 <= 1 rejected: status %d", st)
	}
	sol := solveWith(t, mk(1, LE), KernelSparse)
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("got %v obj=%g, want optimal 0", sol.Status, sol.Objective)
	}
	checkCertificates(t, "empty-row", mk(1, LE), sol)
}

// TestPresolveDominatedColumn checks the weak domination rule: a
// non-profitable column that only consumes LE slack is fixed at its
// lower bound, and the dual story still certifies.
func TestPresolveDominatedColumn(t *testing.T) {
	// max x - 2z  s.t.  x + z <= 4, x <= 3. z is dominated (c=-2<=0,
	// both rows LE with z-coefficients >= 0) and presolve fixes z=0;
	// then x <= 3 and x <= 4 reduce further.
	p := &Problem{NumVars: 2}
	p.Objective = []Coef{{Var: 0, Val: 1}, {Var: 1, Val: -2}}
	p.AddRow([]Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}, LE, 4)
	p.AddRow([]Coef{{Var: 0, Val: 1}}, LE, 3)

	ps := newPresolver(p)
	if st := ps.run(); st != psOK {
		t.Fatalf("run() = %d, want psOK", st)
	}
	if !ps.fixed[1] || ps.fixVal[1] != 0 {
		t.Fatalf("dominated column not fixed at 0: fixed=%v val=%g", ps.fixed[1], ps.fixVal[1])
	}

	w := AcquireWorkspace()
	defer w.Release()
	sol, err := w.Solve(context.Background(), p, Options{Kernel: KernelSparse})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-3) > 1e-9 {
		t.Fatalf("got %v obj=%g, want optimal 3", sol.Status, sol.Objective)
	}
	checkCertificates(t, "dominated", p, sol)
}

// TestPresolveUnboundedColumn: a profitable column with no rows and no
// upper bound is an unbounded ray — but only once feasibility is
// settled, so presolve must leave it for the kernel rather than
// short-circuit (an infeasible problem with the same column is
// Infeasible, not Unbounded).
func TestPresolveUnboundedColumn(t *testing.T) {
	free := &Problem{NumVars: 2}
	free.Objective = []Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}
	free.AddRow([]Coef{{Var: 0, Val: 1}}, LE, 3) // y appears nowhere
	for _, k := range []Kernel{KernelDense, KernelSparse} {
		if sol := solveWith(t, free, k); sol.Status != Unbounded {
			t.Fatalf("kernel %v: %v, want Unbounded", k, sol.Status)
		}
	}

	infeas := &Problem{NumVars: 2}
	infeas.Objective = []Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}
	infeas.AddRow([]Coef{{Var: 0, Val: 1}}, LE, 3)
	infeas.AddRow([]Coef{{Var: 0, Val: 1}}, GE, 5) // x <= 3 and x >= 5
	for _, k := range []Kernel{KernelDense, KernelSparse} {
		if sol := solveWith(t, infeas, k); sol.Status != Infeasible {
			t.Fatalf("kernel %v: %v, want Infeasible (not Unbounded)", k, sol.Status)
		}
	}
}

// FuzzKernelsAgree is the differential harness as a fuzz target: any
// seed that makes the kernels disagree on status, objective, or
// certificate validity is a crasher. `go test` runs the seed corpus;
// `go test -fuzz=FuzzKernelsAgree` explores.
func FuzzKernelsAgree(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 1234, -9} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		p := withRandomBounds(rng, randomMixedLP(rng))
		ds := solveWith(t, p, KernelDense)
		ss := solveWith(t, p, KernelSparse)
		if ds.Status != ss.Status {
			t.Fatalf("status mismatch: dense=%v sparse=%v (problem %+v)", ds.Status, ss.Status, p)
		}
		if ds.Status != Optimal {
			return
		}
		if math.Abs(ds.Objective-ss.Objective) > 1e-6*(1+math.Abs(ds.Objective)) {
			t.Fatalf("objective mismatch: dense=%.12g sparse=%.12g (problem %+v)", ds.Objective, ss.Objective, p)
		}
		checkCertificates(t, "dense", p, ds)
		checkCertificates(t, "sparse", p, ss)
	})
}
