package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestReleaseDropsOversizedArrays pins the pool-retention cap: a
// workspace that grew past maxPooledFloats must shed its backing
// arrays on Release instead of pinning them in the pool forever, while
// ordinarily-sized workspaces keep their storage for reuse.
func TestReleaseDropsOversizedArrays(t *testing.T) {
	w := AcquireWorkspace()
	w.a = make([]float64, maxPooledFloats+1)
	w.Release()
	if cap(w.a) != 0 {
		t.Fatalf("oversized tableau retained through Release: cap=%d", cap(w.a))
	}

	w = AcquireWorkspace()
	w.a = make([]float64, 1024)
	w.phase2 = make([]float64, 64)
	w.Release()
	if cap(w.a) != 1024 || cap(w.phase2) != 64 {
		t.Fatalf("small arrays dropped on Release: cap(a)=%d cap(phase2)=%d", cap(w.a), cap(w.phase2))
	}

	// Bound state counts against the same cap.
	w = AcquireWorkspace()
	w.span = make([]float64, maxPooledFloats+1)
	w.Release()
	if cap(w.span) != 0 {
		t.Fatalf("oversized bound state retained through Release: cap=%d", cap(w.span))
	}

	// So does the anchor SolveNode keeps: a workspace whose own tableau
	// is small but whose anchor is oversized still sheds it.
	w = AcquireWorkspace()
	w.a = make([]float64, 1024)
	w.anc.a = make([]float64, maxPooledFloats)
	w.Release()
	if cap(w.anc.a) != 0 || cap(w.a) != 0 {
		t.Fatalf("oversized anchor retained through Release: cap(anc.a)=%d cap(a)=%d", cap(w.anc.a), cap(w.a))
	}
}

// TestMaxIterTotalBudget pins MaxIter as a TOTAL pivot budget. The old
// code handed the full budget to each phase separately, so a solve
// could spend up to 2x MaxIter pivots; now phase 1, phase 2, and
// warm-start repair all draw from one pool.
func TestMaxIterTotalBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	ctx := context.Background()
	checked := 0
	for trial := 0; trial < 200; trial++ {
		p := randomMixedLP(rng)
		full, err := Solve(ctx, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if full.Stats.SimplexIters < 2 {
			continue
		}
		checked++
		for budget := 1; budget <= full.Stats.SimplexIters; budget++ {
			sol, err := Solve(ctx, p, Options{MaxIter: budget})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Stats.SimplexIters > budget {
				t.Fatalf("budget %d: spent %d pivots total (problem %+v)",
					budget, sol.Stats.SimplexIters, p)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no trial exercised a multi-pivot solve")
	}
}

// TestMaxIterTotalBudgetWarm extends the budget pin to the warm path:
// dual repair plus primal polish share the one budget.
func TestMaxIterTotalBudgetWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	ctx := context.Background()
	for trial := 0; trial < 100; trial++ {
		p := randomMixedLP(rng)
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
		v := rng.Intn(p.NumVars)
		child := withBound(p, v, 0, math.Floor(parent.X[v]))
		for budget := 1; budget <= 6; budget++ {
			sol, err := w.SolveFrom(ctx, child, Options{MaxIter: budget}, basis)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Stats.SimplexIters > budget {
				t.Fatalf("trial %d budget %d: warm solve spent %d pivots", trial, budget, sol.Stats.SimplexIters)
			}
		}
		w.Release()
	}
}

// TestWarmStartLayoutDriftGuard provokes the layout-drift hole: a
// basis captured on one row prefix, then replayed against a prefix
// whose row SENSE changed. The captured column indices are positional,
// so without the (n, nArt) guard the stale basis canonicalizes into
// the wrong columns and silently optimizes a different polytope. The
// guard must reject the basis (zero warm pivots) and the cold fallback
// must still produce the right answer.
func TestWarmStartLayoutDriftGuard(t *testing.T) {
	ctx := context.Background()
	base := &Problem{NumVars: 2}
	base.Objective = []Coef{{Var: 0, Val: 3}, {Var: 1, Val: 2}}
	base.AddRow([]Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}, LE, 4)
	base.AddRow([]Coef{{Var: 0, Val: 1}}, LE, 3)

	flips := []struct {
		name  string
		sense Sense
	}{
		{"LE->GE changes column count", GE},
		{"LE->EQ swaps slack for artificial", EQ},
	}
	for _, f := range flips {
		w := AcquireWorkspace()
		parent, err := w.Solve(ctx, base, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if parent.Status != Optimal {
			t.Fatalf("parent not optimal: %v", parent.Status)
		}
		basis := w.CaptureBasis(nil)

		drifted := &Problem{NumVars: 2, Objective: base.Objective}
		drifted.Rows = append(drifted.Rows, base.Rows...)
		drifted.Rows[0].Sense = f.sense

		warm, err := w.SolveFrom(ctx, drifted, Options{}, basis)
		if err != nil {
			t.Fatal(err)
		}
		cold := mustSolve(t, drifted)
		if warm.Status != cold.Status {
			t.Fatalf("%s: drifted warm status %v != cold %v", f.name, warm.Status, cold.Status)
		}
		if cold.Status == Optimal {
			if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("%s: drifted warm objective %g != cold %g", f.name, warm.Objective, cold.Objective)
			}
			checkCertificates(t, "drifted-warm", drifted, warm)
		}
		if warm.Stats.WarmPivots != 0 {
			t.Fatalf("%s: drifted basis was not rejected: %d warm pivots", f.name, warm.Stats.WarmPivots)
		}
		w.Release()
	}

	// Lower bounds drift the layout too: y >= 3 turns x + y >= 1 into
	// an LE row and -x + y <= 1 into a GE row, keeping the column count.
	flip := &Problem{NumVars: 2, Objective: []Coef{{Var: 0, Val: -1}, {Var: 1, Val: -1}}}
	flip.AddRow([]Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}, GE, 1)
	flip.AddRow([]Coef{{Var: 0, Val: -1}, {Var: 1, Val: 1}}, LE, 1)
	shifted := *flip
	shifted.Lower = []float64{0, 3}
	w := AcquireWorkspace()
	if s, err := w.Solve(ctx, flip, Options{}); err != nil || s.Status != Optimal {
		t.Fatalf("flip: %v %v", s.Status, err)
	}
	warm, err := w.SolveFrom(ctx, &shifted, Options{}, w.CaptureBasis(nil))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || math.Abs(warm.Objective+5) > 1e-9 || warm.Stats.WarmPivots != 0 {
		t.Fatalf("lower-bound drift: %v obj %g after %d warm pivots, want optimal -5 solved cold", warm.Status, warm.Objective, warm.Stats.WarmPivots)
	}
	w.Release()
}

// TestPrefixLayoutMatchesBuild pins prefixLayout to the column
// assignment Workspace.build actually performs — the invariant the
// warm-start drift guard leans on.
func TestPrefixLayoutMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 300; trial++ {
		p := withRandomBounds(rng, randomMixedLP(rng))
		w := AcquireWorkspace()
		w.trackPhase1 = false
		w.build(p)
		n, sig := prefixLayout(p, p.NumVars)
		if n != w.n {
			t.Fatalf("trial %d: prefixLayout n=%d, build n=%d", trial, n, w.n)
		}
		if sig != w.sig {
			t.Fatalf("trial %d: prefixLayout signature %x, build %x", trial, sig, w.sig)
		}
		w.Release()
	}
}
