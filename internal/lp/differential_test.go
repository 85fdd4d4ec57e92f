package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomLP generates a small LP with integer data, which makes
// degeneracy, redundant rows, and alternative optima common rather
// than exceptional. Negative RHS values exercise the dense kernel's
// row normalization against the sparse kernel's sign-free form.
func randomMixedLP(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(8)
	m := 1 + rng.Intn(10)
	p := &Problem{NumVars: n}
	for j := 0; j < n; j++ {
		if c := rng.Intn(7) - 3; c != 0 {
			p.Objective = append(p.Objective, Coef{Var: j, Val: float64(c)})
		}
	}
	senses := []Sense{LE, LE, LE, GE, EQ} // LE-heavy, like the model layer
	for i := 0; i < m; i++ {
		if i > 0 && rng.Intn(8) == 0 {
			// Redundant row: duplicate an earlier one verbatim.
			p.Rows = append(p.Rows, p.Rows[rng.Intn(i)])
			continue
		}
		var coefs []Coef
		if rng.Intn(5) == 0 {
			// Singleton row (presolve turns these into bounds).
			coefs = []Coef{{Var: rng.Intn(n), Val: float64(1 + rng.Intn(3))}}
		} else {
			for j := 0; j < n; j++ {
				if rng.Intn(10) < 6 {
					if c := rng.Intn(7) - 3; c != 0 {
						coefs = append(coefs, Coef{Var: j, Val: float64(c)})
					}
				}
			}
		}
		p.AddRow(coefs, senses[rng.Intn(len(senses))], float64(rng.Intn(13)-4))
	}
	return p
}

// checkCertificates validates an Optimal solution as a primal/dual
// optimality certificate for the original problem: primal feasibility,
// dual sign conditions per row sense, dual feasibility of every
// column, and strong duality. Duals are non-unique under degeneracy,
// so the two kernels are compared through certificates, not
// coordinates.
func checkCertificates(t *testing.T, tag string, p *Problem, sol Solution) {
	t.Helper()
	const tol = 1e-6
	if len(sol.X) != p.NumVars || len(sol.Duals) != len(p.Rows) {
		t.Fatalf("%s: malformed solution: |X|=%d |Duals|=%d", tag, len(sol.X), len(sol.Duals))
	}
	for j, v := range sol.X {
		if v < -tol {
			t.Fatalf("%s: x[%d] = %g < 0", tag, j, v)
		}
	}
	obj := 0.0
	for _, c := range p.Objective {
		obj += c.Val * sol.X[c.Var]
	}
	if math.Abs(obj-sol.Objective) > tol*(1+math.Abs(obj)) {
		t.Fatalf("%s: reported objective %g != c'x %g", tag, sol.Objective, obj)
	}
	dualObj := 0.0
	for i, r := range p.Rows {
		lhs := 0.0
		for _, c := range r.Coefs {
			lhs += c.Val * sol.X[c.Var]
		}
		switch r.Sense {
		case LE:
			if lhs > r.RHS+tol {
				t.Fatalf("%s: row %d violated: %g > %g", tag, i, lhs, r.RHS)
			}
			if sol.Duals[i] < -tol {
				t.Fatalf("%s: LE row %d has negative dual %g", tag, i, sol.Duals[i])
			}
		case GE:
			if lhs < r.RHS-tol {
				t.Fatalf("%s: row %d violated: %g < %g", tag, i, lhs, r.RHS)
			}
			if sol.Duals[i] > tol {
				t.Fatalf("%s: GE row %d has positive dual %g", tag, i, sol.Duals[i])
			}
		case EQ:
			if math.Abs(lhs-r.RHS) > tol {
				t.Fatalf("%s: row %d violated: %g != %g", tag, i, lhs, r.RHS)
			}
		}
		dualObj += sol.Duals[i] * r.RHS
	}
	// Dual feasibility: every column prices out non-positive (max
	// problem over x >= 0).
	reduced := make([]float64, p.NumVars)
	for _, c := range p.Objective {
		reduced[c.Var] += c.Val
	}
	for i, r := range p.Rows {
		for _, c := range r.Coefs {
			reduced[c.Var] -= sol.Duals[i] * c.Val
		}
	}
	for j, d := range reduced {
		if d > tol {
			t.Fatalf("%s: column %d prices out positive: reduced cost %g", tag, j, d)
		}
	}
	if math.Abs(dualObj-obj) > 1e-5*(1+math.Abs(obj)) {
		t.Fatalf("%s: strong duality gap: b'y = %g, c'x = %g", tag, dualObj, obj)
	}
}

func solveWith(t *testing.T, p *Problem, k Kernel) Solution {
	t.Helper()
	sol, err := Solve(context.Background(), p, Options{Kernel: k})
	if err != nil {
		t.Fatalf("kernel %v: %v", k, err)
	}
	return sol
}

// TestKernelsAgreeRandom is the differential property test: both
// kernels must agree on status and (for Optimal) on the objective to
// 1e-6, and each kernel's duals must certify optimality.
func TestKernelsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 800; trial++ {
		p := randomMixedLP(rng)
		ds := solveWith(t, p, KernelDense)
		ss := solveWith(t, p, KernelSparse)
		if ds.Status != ss.Status {
			t.Fatalf("trial %d: status mismatch dense=%v sparse=%v (problem %+v)", trial, ds.Status, ss.Status, p)
		}
		if ds.Status != Optimal {
			continue
		}
		if math.Abs(ds.Objective-ss.Objective) > 1e-6*(1+math.Abs(ds.Objective)) {
			t.Fatalf("trial %d: objective mismatch dense=%.12g sparse=%.12g (problem %+v)", trial, ds.Objective, ss.Objective, p)
		}
		checkCertificates(t, "dense", p, ds)
		checkCertificates(t, "sparse", p, ss)
	}
}

// TestKernelsAgreeLarger drives both kernels over larger, sparser
// instances where the revised method's machinery (eta refactorization,
// presolve chains) actually engages.
func TestKernelsAgreeLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(30)
		m := 20 + rng.Intn(30)
		p := &Problem{NumVars: n}
		for j := 0; j < n; j++ {
			p.Objective = append(p.Objective, Coef{Var: j, Val: float64(rng.Intn(9) - 4)})
		}
		for j := 0; j < n; j++ {
			// Assignment-style bound rows: presolve fodder.
			p.AddRow([]Coef{{Var: j, Val: 1}}, LE, float64(1+rng.Intn(3)))
		}
		for i := 0; i < m; i++ {
			var coefs []Coef
			for j := 0; j < n; j++ {
				if rng.Intn(10) < 3 {
					coefs = append(coefs, Coef{Var: j, Val: float64(rng.Intn(5) + 1)})
				}
			}
			p.AddRow(coefs, LE, float64(5+rng.Intn(40)))
		}
		ds := solveWith(t, p, KernelDense)
		ss := solveWith(t, p, KernelSparse)
		if ds.Status != ss.Status {
			t.Fatalf("trial %d: status mismatch dense=%v sparse=%v", trial, ds.Status, ss.Status)
		}
		if ds.Status != Optimal {
			continue
		}
		if math.Abs(ds.Objective-ss.Objective) > 1e-6*(1+math.Abs(ds.Objective)) {
			t.Fatalf("trial %d: objective mismatch dense=%.12g sparse=%.12g", trial, ds.Objective, ss.Objective)
		}
		checkCertificates(t, "dense", p, ds)
		checkCertificates(t, "sparse", p, ss)
	}
}

// TestCrossKernelWarmStart checks that a basis captured by one kernel
// warm-starts the other: the sparse kernel captures in the dense
// column layout, so the handles must be interchangeable in both
// directions, including across an appended branching row.
func TestCrossKernelWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	for trial := 0; trial < 200; trial++ {
		p := randomMixedLP(rng)
		for capK, solveK := range map[Kernel]Kernel{KernelSparse: KernelDense, KernelDense: KernelSparse} {
			w := AcquireWorkspace()
			parent, err := w.Solve(ctx, p, Options{Kernel: capK})
			if err != nil {
				t.Fatal(err)
			}
			if parent.Status != Optimal {
				w.Release()
				continue
			}
			basis := w.CaptureBasis(nil)

			// Child: tighten one variable with an appended bound row,
			// the branch-and-bound move.
			child := &Problem{NumVars: p.NumVars, Objective: p.Objective}
			child.Rows = append(child.Rows, p.Rows...)
			v := rng.Intn(p.NumVars)
			child.AddRow([]Coef{{Var: v, Val: 1}}, LE, math.Floor(parent.X[v]))

			warm, err := w.SolveFrom(ctx, child, Options{Kernel: solveK}, basis)
			if err != nil {
				t.Fatal(err)
			}
			cold := solveWith(t, child, KernelDense)
			if warm.Status != cold.Status {
				t.Fatalf("trial %d (%v->%v): warm status %v != cold %v", trial, capK, solveK, warm.Status, cold.Status)
			}
			if cold.Status == Optimal {
				if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
					t.Fatalf("trial %d (%v->%v): warm obj %.12g != cold %.12g", trial, capK, solveK, warm.Objective, cold.Objective)
				}
				checkCertificates(t, "warm", child, warm)
			}
			w.Release()
		}
	}
}

// TestSparseAnytimeIterLimit pins the anytime contract on the sparse
// kernel: an exhausted pivot budget during phase 2 still reports the
// current feasible point; during phase 1 it reports IterLimit with no
// point, exactly like the dense kernel.
func TestSparseAnytimeIterLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sawPoint := false
	for trial := 0; trial < 300 && !sawPoint; trial++ {
		p := randomMixedLP(rng)
		for budget := 1; budget <= 6; budget++ {
			sol, err := Solve(context.Background(), p, Options{Kernel: KernelSparse, MaxIter: budget})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Stats.SimplexIters > budget {
				t.Fatalf("budget %d exceeded: %d pivots", budget, sol.Stats.SimplexIters)
			}
			if sol.Status == IterLimit && sol.X != nil {
				sawPoint = true
				for i, r := range p.Rows {
					lhs := 0.0
					for _, c := range r.Coefs {
						lhs += c.Val * sol.X[c.Var]
					}
					switch r.Sense {
					case LE:
						if lhs > r.RHS+1e-6 {
							t.Fatalf("anytime point violates row %d", i)
						}
					case GE:
						if lhs < r.RHS-1e-6 {
							t.Fatalf("anytime point violates row %d", i)
						}
					case EQ:
						if math.Abs(lhs-r.RHS) > 1e-6 {
							t.Fatalf("anytime point violates row %d", i)
						}
					}
				}
			}
		}
	}
	if !sawPoint {
		t.Fatal("no trial produced an IterLimit solution with a feasible point")
	}
}
