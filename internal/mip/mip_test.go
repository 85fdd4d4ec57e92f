package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/cloudsched/rasa/internal/lp"
)

func dense(vals ...float64) []lp.Coef {
	var out []lp.Coef
	for i, v := range vals {
		if v != 0 {
			out = append(out, lp.Coef{Var: i, Val: v})
		}
	}
	return out
}

func allInt(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary-ish (vars <= 1).
	// Best: a=0,b=1,c=1 -> 20.
	p := &Problem{
		LP:      lp.Problem{NumVars: 3, Objective: dense(10, 13, 7)},
		Integer: allInt(3),
	}
	p.LP.AddRow(dense(3, 4, 2), lp.LE, 6)
	for j := 0; j < 3; j++ {
		p.LP.AddRow([]lp.Coef{{Var: j, Val: 1}}, lp.LE, 1)
	}
	s, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-20) > 1e-6 {
		t.Fatalf("status %v obj %v x %v", s.Status, s.Objective, s.X)
	}
}

func TestPureLPPassthrough(t *testing.T) {
	// No integer variables: one LP solve should be optimal.
	p := &Problem{LP: lp.Problem{NumVars: 2, Objective: dense(1, 1)}}
	p.LP.AddRow(dense(1, 2), lp.LE, 4)
	p.LP.AddRow(dense(2, 1), lp.LE, 4)
	s, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-8.0/3) > 1e-6 {
		t.Fatalf("status %v obj %v", s.Status, s.Objective)
	}
	if s.Nodes != 1 {
		t.Fatalf("nodes = %d, want 1", s.Nodes)
	}
}

func TestFractionalLPIntegerGap(t *testing.T) {
	// max x s.t. 2x <= 3, x integer -> LP gives 1.5, MIP must give 1.
	p := &Problem{
		LP:      lp.Problem{NumVars: 1, Objective: dense(1)},
		Integer: allInt(1),
	}
	p.LP.AddRow(dense(2), lp.LE, 3)
	s, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-1) > 1e-6 {
		t.Fatalf("status %v obj %v", s.Status, s.Objective)
	}
}

func TestInfeasibleMIP(t *testing.T) {
	// 2x == 1 with x integer: LP feasible, no integer point.
	p := &Problem{
		LP:      lp.Problem{NumVars: 1},
		Integer: allInt(1),
	}
	p.LP.AddRow(dense(2), lp.EQ, 1)
	p.LP.AddRow(dense(1), lp.LE, 10)
	s, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestInfeasibleLP(t *testing.T) {
	p := &Problem{LP: lp.Problem{NumVars: 1, Objective: dense(1)}, Integer: allInt(1)}
	p.LP.AddRow(dense(1), lp.GE, 5)
	p.LP.AddRow(dense(1), lp.LE, 1)
	s, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 2x + y, x integer, y continuous; x + y <= 2.5, x <= 1.7.
	// x=1, y=1.5 -> 3.5.
	p := &Problem{
		LP:      lp.Problem{NumVars: 2, Objective: dense(2, 1)},
		Integer: []bool{true, false},
	}
	p.LP.AddRow(dense(1, 1), lp.LE, 2.5)
	p.LP.AddRow(dense(1, 0), lp.LE, 1.7)
	s, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-3.5) > 1e-6 {
		t.Fatalf("status %v obj %v x %v", s.Status, s.Objective, s.X)
	}
}

func TestAnytimeDeadline(t *testing.T) {
	// With an expired deadline the solver must return promptly; any of
	// the non-optimal statuses is acceptable, but it must not hang or
	// fabricate an incumbent.
	rng := rand.New(rand.NewSource(3))
	p := randomIP(rng, 12, 10)
	s, err := Solve(context.Background(), p, Options{Deadline: time.Now().Add(-time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status == Optimal {
		// Possible only if the root LP was already integral; verify.
		if s.X == nil {
			t.Fatalf("optimal without solution")
		}
	}
}

func TestNodeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomIP(rng, 14, 12)
	s, err := Solve(context.Background(), p, Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes > 4 { // root + budget slack of one pop
		t.Fatalf("nodes = %d exceeds budget", s.Nodes)
	}
}

func TestCustomRounder(t *testing.T) {
	// A rounder that always returns a known feasible point must seed the
	// incumbent even under a tiny node budget.
	p := &Problem{
		LP:      lp.Problem{NumVars: 1, Objective: dense(1)},
		Integer: allInt(1),
	}
	p.LP.AddRow(dense(2), lp.LE, 3)
	called := false
	opts := Options{
		MaxNodes: 1,
		Rounder: func(x []float64) ([]float64, float64, bool) {
			called = true
			return []float64{1}, 1, true
		},
		RoundEvery: 1,
	}
	s, err := Solve(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("rounder not invoked")
	}
	if s.X == nil || math.Abs(s.Objective-1) > 1e-9 {
		t.Fatalf("incumbent not adopted: %+v", s)
	}
}

// TestNaiveRoundingRespectsBounds: with no Rounder, rounding checks the
// variable bounds as well as the rows. The LP optimum x = 2.5 sits at
// the upper bound and rounds to 3, which is outside it and must never
// become the incumbent.
func TestNaiveRoundingRespectsBounds(t *testing.T) {
	p := &Problem{
		LP:      lp.Problem{NumVars: 1, Objective: dense(1), Upper: []float64{2.5}},
		Integer: allInt(1),
	}
	s, err := Solve(context.Background(), p, Options{RoundEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || s.X[0] != 2 || s.Objective != 2 || s.Stats.Incumbents != 1 {
		t.Fatalf("status %v x %v obj %v incumbents %d, want optimal x=2 from a single incumbent", s.Status, s.X, s.Objective, s.Stats.Incumbents)
	}
}

// TestCrossingBoundsInfeasible: an up-branch above a fractional upper
// bound (x >= 3 against x <= 2.5) has crossing bounds. nodeBounds
// settles such a node as infeasible before either node path runs, since
// SolveNode requires lo <= up and SolveFrom rejects crossing bounds as
// a malformed problem; the search must still reach the optimum.
func TestCrossingBoundsInfeasible(t *testing.T) {
	const n, m = 30, 120
	p := &Problem{LP: lp.Problem{NumVars: n, Upper: make([]float64, n)}, Integer: allInt(n)}
	for j := 0; j < n; j++ {
		p.LP.Objective = append(p.LP.Objective, lp.Coef{Var: j, Val: float64(1 + j%3)})
		p.LP.Upper[j] = 2.5
	}
	for i := 0; i < m; i++ {
		p.LP.AddRow([]lp.Coef{{Var: i % n, Val: 1}, {Var: (i + 1) % n, Val: 1}}, lp.LE, 10)
	}
	s, err := Solve(context.Background(), p, Options{RoundEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.0 * (10 + 20 + 30); s.Status != Optimal || s.Objective != want {
		t.Fatalf("status %v obj %v, want optimal %v", s.Status, s.Objective, want)
	}
}

func TestRoundingDisabled(t *testing.T) {
	p := &Problem{
		LP:      lp.Problem{NumVars: 1, Objective: dense(1)},
		Integer: allInt(1),
	}
	p.LP.AddRow(dense(2), lp.LE, 3)
	s, err := Solve(context.Background(), p, Options{RoundEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Still solved exactly via branching.
	if s.Status != Optimal || math.Abs(s.Objective-1) > 1e-6 {
		t.Fatalf("status %v obj %v", s.Status, s.Objective)
	}
}

// randomIP builds a bounded random pure-integer program with n vars and
// m cover constraints; x=0 is always feasible.
func randomIP(rng *rand.Rand, n, m int) *Problem {
	p := &Problem{
		LP:      lp.Problem{NumVars: n},
		Integer: allInt(n),
	}
	for j := 0; j < n; j++ {
		p.LP.Objective = append(p.LP.Objective, lp.Coef{Var: j, Val: 1 + rng.Float64()*9})
		p.LP.AddRow([]lp.Coef{{Var: j, Val: 1}}, lp.LE, float64(1+rng.Intn(3)))
	}
	for i := 0; i < m; i++ {
		var cs []lp.Coef
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				cs = append(cs, lp.Coef{Var: j, Val: 1 + rng.Float64()*4})
			}
		}
		if len(cs) == 0 {
			continue
		}
		p.LP.AddRow(cs, lp.LE, 2+rng.Float64()*10)
	}
	return p
}

// withBounds restates randomIP's box rows x_j <= ub_j (its first n
// rows) as variable upper bounds, and gives some variables a lower
// bound of 1 where the box allows it.
func withBounds(rng *rand.Rand, p *Problem) *Problem {
	n := p.LP.NumVars
	p.LP.Lower, p.LP.Upper = make([]float64, n), make([]float64, n)
	for j := 0; j < n; j++ {
		p.LP.Upper[j] = p.LP.Rows[j].RHS
		if rng.Intn(3) == 0 {
			p.LP.Lower[j] = 1
		}
	}
	p.LP.Rows = p.LP.Rows[n:]
	return p
}

// bruteForce enumerates all integer points within the box — the
// variable bounds when the problem has them, else the first n rows
// x_j <= ub_j — and returns the best feasible objective, or -inf if
// none.
func bruteForce(p *Problem) float64 {
	n := p.LP.NumVars
	lb, ub := make([]int, n), make([]int, n)
	for j := 0; j < n; j++ {
		if p.LP.Upper != nil {
			lb[j], ub[j] = int(p.LP.Lower[j]), int(p.LP.Upper[j])
		} else {
			ub[j] = int(p.LP.Rows[j].RHS)
		}
	}
	best := math.Inf(-1)
	x := make([]float64, n)
	var rec func(j int)
	rec = func(j int) {
		if j == n {
			for _, r := range p.LP.Rows {
				var lhs float64
				for _, c := range r.Coefs {
					lhs += c.Val * x[c.Var]
				}
				if r.Sense == lp.LE && lhs > r.RHS+1e-9 {
					return
				}
			}
			var obj float64
			for _, c := range p.LP.Objective {
				obj += c.Val * x[c.Var]
			}
			if obj > best {
				best = obj
			}
			return
		}
		for v := lb[j]; v <= ub[j]; v++ {
			x[j] = float64(v)
			rec(j + 1)
		}
	}
	rec(0)
	return best
}

// Property: branch-and-bound matches exhaustive enumeration on small
// random integer programs, for both branching rules, with the boxes
// stated as rows or as variable bounds (branching then tightens a
// bound the problem already has).
func TestPropertyMatchesBruteForce(t *testing.T) {
	for _, rule := range []BranchRule{Pseudocost, MostFractional} {
		rule := rule
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(5)
			m := 1 + rng.Intn(5)
			p := randomIP(rng, n, m)
			if rng.Intn(2) == 0 {
				p = withBounds(rng, p)
			}
			want := bruteForce(p)
			s, err := Solve(context.Background(), p, Options{Branching: rule})
			if math.IsInf(want, -1) {
				return err == nil && s.Status == Infeasible
			}
			if err != nil || s.Status != Optimal {
				return false
			}
			return math.Abs(s.Objective-want) <= 1e-5*(1+math.Abs(want))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("rule %v: %v", rule, err)
		}
	}
}

// Property: the reported bound is always >= the incumbent objective, and
// the incumbent is feasible.
func TestPropertyBoundDominatesIncumbent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomIP(rng, 2+rng.Intn(6), 1+rng.Intn(6))
		s, err := Solve(context.Background(), p, Options{})
		if err != nil || s.X == nil {
			return false
		}
		if s.Bound < s.Objective-1e-6 {
			return false
		}
		// Verify feasibility of the incumbent.
		for _, r := range p.LP.Rows {
			var lhs float64
			for _, c := range r.Coefs {
				lhs += c.Val * s.X[c.Var]
			}
			if r.Sense == lp.LE && lhs > r.RHS+1e-6 {
				return false
			}
		}
		for _, v := range s.X {
			if v < -1e-9 || math.Abs(v-math.Round(v)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolveSmallIP(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	p := randomIP(rng, 10, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
