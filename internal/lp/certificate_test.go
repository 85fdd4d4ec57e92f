package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomMixedLP generates a small LP with integer data, which makes
// degeneracy, redundant rows, and alternative optima common rather
// than exceptional. Negative RHS values exercise the tableau's row
// normalization.
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
			// Singleton row: a bound stated as a constraint.
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

// withRandomBounds gives half the problems variable bounds: finite
// upper bounds (some fractional, some zero) on about half the
// variables and positive lower bounds, at most the upper, on a quarter.
func withRandomBounds(rng *rand.Rand, p *Problem) *Problem {
	if rng.Intn(2) == 0 {
		return p
	}
	p.Lower, p.Upper = make([]float64, p.NumVars), make([]float64, p.NumVars)
	for j := range p.Upper {
		p.Upper[j] = math.Inf(1)
		if rng.Intn(2) == 0 {
			p.Upper[j] = float64(rng.Intn(7)) / float64(1+rng.Intn(2))
		}
		if rng.Intn(4) == 0 {
			p.Lower[j] = math.Min(float64(rng.Intn(3)), p.Upper[j])
		}
	}
	return p
}

// checkCertificates validates an Optimal solution as a primal/dual
// optimality certificate for the original problem: primal feasibility
// (rows and variable bounds), dual sign conditions per row sense, dual
// feasibility of every column (a reduced cost may be positive only at
// an upper bound and negative only at a lower one), and strong
// duality. Duals are non-unique under degeneracy, so a solution is
// judged by its certificate, not by its coordinates.
func checkCertificates(t *testing.T, tag string, p *Problem, sol Solution) {
	t.Helper()
	const tol = 1e-6
	if len(sol.X) != p.NumVars || len(sol.Duals) != len(p.Rows) {
		t.Fatalf("%s: malformed solution: |X|=%d |Duals|=%d", tag, len(sol.X), len(sol.Duals))
	}
	for j, v := range sol.X {
		if lo, up := p.bound(j); v < lo-tol || v > up+tol {
			t.Fatalf("%s: x[%d] = %g outside [%g, %g]", tag, j, v, lo, up)
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
	// Dual feasibility: a column prices out positive only at its upper
	// bound and negative only at its lower one (max problem), and the
	// bounds it is held at enter the dual objective.
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
		lo, up := p.bound(j)
		switch {
		case d > tol && sol.X[j] < up-tol:
			t.Fatalf("%s: column %d prices out positive below its upper bound: reduced cost %g", tag, j, d)
		case d < -tol && sol.X[j] > lo+tol:
			t.Fatalf("%s: column %d prices out negative above its lower bound: reduced cost %g", tag, j, d)
		case d > tol:
			dualObj += d * up
		case d < -tol:
			dualObj += d * lo
		}
	}
	if math.Abs(dualObj-obj) > 1e-5*(1+math.Abs(obj)) {
		t.Fatalf("%s: strong duality gap: b'y = %g, c'x = %g", tag, dualObj, obj)
	}
}

// TestCertificatesLarger drives the simplex over larger, sparser
// instances than the oracle can enumerate: assignment-style singleton
// rows plus random packing rows, bounded, and feasible unless a random
// lower bound overfills a row. Every Optimal solution must certify
// itself.
func TestCertificatesLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	optimal := 0
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(30)
		m := 20 + rng.Intn(30)
		p := &Problem{NumVars: n}
		for j := 0; j < n; j++ {
			p.Objective = append(p.Objective, Coef{Var: j, Val: float64(rng.Intn(9) - 4)})
		}
		for j := 0; j < n; j++ {
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
		withRandomBounds(rng, p)
		sol := mustSolve(t, p)
		if sol.Status != Optimal {
			continue
		}
		optimal++
		checkCertificates(t, "larger", p, sol)
	}
	if optimal < 30 {
		t.Fatalf("only %d of 60 trials optimal; generator too narrow", optimal)
	}
	t.Logf("%d of 60 trials optimal", optimal)
}

// TestCaptureWarmStart checks the capture → re-solve round trip: a
// basis captured after an optimal solve, at-upper nonbasic columns
// included, warm-starts a fresh workspace onto the captured vertex (a
// degenerate vertex may cost a pivot that does not move x), and a child
// with a tightened upper bound warm-started from it matches its cold
// solve.
func TestCaptureWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	atUpper, resolves, pivoted := 0, 0, 0
	for trial := 0; trial < 800; trial++ {
		p := withRandomBounds(rng, randomMixedLP(rng))
		w := AcquireWorkspace()
		parent, err := w.Solve(ctx, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if parent.Status != Optimal {
			w.Release()
			continue
		}
		basis := w.CaptureBasis(nil)
		atUpper += len(basis.upper)

		same, err := AcquireWorkspace().SolveFrom(ctx, p, Options{}, basis)
		if err != nil {
			t.Fatal(err)
		}
		if same.Status != Optimal || same.Stats.ColdPivots != 0 {
			t.Fatalf("trial %d: re-solve from the capture: %v after %d cold pivots", trial, same.Status, same.Stats.ColdPivots)
		}
		resolves++
		if same.Stats.SimplexIters != 0 {
			pivoted++ // a degenerate vertex may take a pivot that does not move x
		}
		for j := range same.X {
			if math.Abs(same.X[j]-parent.X[j]) > 1e-7 {
				t.Fatalf("trial %d: re-solve lands on x=%v, capture at %v", trial, same.X, parent.X)
			}
		}

		// Child: tighten one variable's upper bound, the
		// branch-and-bound move.
		v := rng.Intn(p.NumVars)
		lo, up := p.bound(v)
		child := withBound(p, v, lo, math.Max(lo, math.Min(up, math.Floor(parent.X[v]))))

		warm, err := w.SolveFrom(ctx, child, Options{}, basis)
		if err != nil {
			t.Fatal(err)
		}
		cold := mustSolve(t, child)
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v != cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status == Optimal {
			if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d: warm obj %.12g != cold %.12g", trial, warm.Objective, cold.Objective)
			}
			checkCertificates(t, "warm", child, warm)
		}
		w.Release()
	}
	if atUpper < 20 {
		t.Fatalf("only %d at-upper nonbasic columns captured; generator too narrow", atUpper)
	}
	if pivoted*20 > resolves {
		t.Fatalf("%d of %d re-solves from a capture needed pivots", pivoted, resolves)
	}
	t.Logf("%d at-upper columns captured; %d of %d re-solves pivoted", atUpper, pivoted, resolves)
}

// TestAnytimeIterLimit pins the anytime contract: a pivot budget
// exhausted during phase 2 still reports the current basic point, and
// that point satisfies every row.
func TestAnytimeIterLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sawPoint := false
	for trial := 0; trial < 300 && !sawPoint; trial++ {
		p := randomMixedLP(rng)
		for budget := 1; budget <= 6; budget++ {
			sol, err := Solve(context.Background(), p, Options{MaxIter: budget})
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
