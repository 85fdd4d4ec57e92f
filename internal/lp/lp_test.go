package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func dense(vals ...float64) []Coef {
	var out []Coef
	for i, v := range vals {
		if v != 0 {
			out = append(out, Coef{Var: i, Val: v})
		}
	}
	return out
}

func mustSolve(t *testing.T, p *Problem) Solution {
	t.Helper()
	s, err := Solve(context.Background(), p, Options{})
	if err != nil {
		t.Fatalf("Solve error: %v", err)
	}
	return s
}

func TestSimpleMax(t *testing.T) {
	// max 3x + 2y s.t. x+y<=4, x+3y<=6 -> x=4, y=0, obj=12.
	p := &Problem{NumVars: 2, Objective: dense(3, 2)}
	p.AddRow(dense(1, 1), LE, 4)
	p.AddRow(dense(1, 3), LE, 6)
	s := mustSolve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !almostEq(s.Objective, 12, 1e-7) {
		t.Fatalf("objective = %v, want 12", s.Objective)
	}
	if !almostEq(s.X[0], 4, 1e-7) || !almostEq(s.X[1], 0, 1e-7) {
		t.Fatalf("x = %v", s.X)
	}
}

func TestDegenerateAndFractional(t *testing.T) {
	// max x + y s.t. x<=1, y<=1, x+y<=1.5 -> obj 1.5.
	p := &Problem{NumVars: 2, Objective: dense(1, 1)}
	p.AddRow(dense(1, 0), LE, 1)
	p.AddRow(dense(0, 1), LE, 1)
	p.AddRow(dense(1, 1), LE, 1.5)
	s := mustSolve(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, 1.5, 1e-7) {
		t.Fatalf("got %v obj %v", s.Status, s.Objective)
	}
}

func TestEqualityRows(t *testing.T) {
	// max x + 2y s.t. x + y == 3, y <= 2 -> x=1, y=2, obj=5.
	p := &Problem{NumVars: 2, Objective: dense(1, 2)}
	p.AddRow(dense(1, 1), EQ, 3)
	p.AddRow(dense(0, 1), LE, 2)
	s := mustSolve(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, 5, 1e-7) {
		t.Fatalf("got %v obj %v x %v", s.Status, s.Objective, s.X)
	}
	if !almostEq(s.X[0], 1, 1e-7) || !almostEq(s.X[1], 2, 1e-7) {
		t.Fatalf("x = %v", s.X)
	}
}

func TestGERows(t *testing.T) {
	// min x+y s.t. x+2y>=4, 3x+y>=6  (solve as max of negation).
	// Optimum at intersection: x=1.6, y=1.2, obj=2.8.
	p := &Problem{NumVars: 2, Objective: dense(-1, -1)}
	p.AddRow(dense(1, 2), GE, 4)
	p.AddRow(dense(3, 1), GE, 6)
	s := mustSolve(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, -2.8, 1e-7) {
		t.Fatalf("got %v obj %v x %v", s.Status, s.Objective, s.X)
	}
}

func TestNegativeRHS(t *testing.T) {
	// x - y <= -1 with RHS < 0 must be normalized correctly.
	// max x s.t. x - y <= -1, y <= 3 -> y=3, x=2.
	p := &Problem{NumVars: 2, Objective: dense(1, 0)}
	p.AddRow(dense(1, -1), LE, -1)
	p.AddRow(dense(0, 1), LE, 3)
	s := mustSolve(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, 2, 1e-7) {
		t.Fatalf("got %v obj %v x %v", s.Status, s.Objective, s.X)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: dense(1)}
	p.AddRow(dense(1), LE, 1)
	p.AddRow(dense(1), GE, 2)
	s := mustSolve(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: dense(1, 0)}
	p.AddRow(dense(0, 1), LE, 1) // x unconstrained above
	s := mustSolve(t, p)
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestZeroObjective(t *testing.T) {
	p := &Problem{NumVars: 1}
	p.AddRow(dense(1), EQ, 2)
	s := mustSolve(t, p)
	if s.Status != Optimal || !almostEq(s.X[0], 2, 1e-7) {
		t.Fatalf("got %v x %v", s.Status, s.X)
	}
}

func TestEmptyProblem(t *testing.T) {
	p := &Problem{NumVars: 0}
	s := mustSolve(t, p)
	if s.Status != Optimal || s.Objective != 0 {
		t.Fatalf("got %v obj %v", s.Status, s.Objective)
	}
}

func TestRedundantEquality(t *testing.T) {
	// Duplicate equality rows create a dependent row whose artificial
	// cannot be pivoted out; the solver must still succeed.
	p := &Problem{NumVars: 2, Objective: dense(1, 1)}
	p.AddRow(dense(1, 1), EQ, 2)
	p.AddRow(dense(1, 1), EQ, 2)
	p.AddRow(dense(1, 0), LE, 2)
	s := mustSolve(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, 2, 1e-7) {
		t.Fatalf("got %v obj %v", s.Status, s.Objective)
	}
}

func TestValidation(t *testing.T) {
	bad := []*Problem{
		{NumVars: -1},
		{NumVars: 1, Objective: []Coef{{Var: 3, Val: 1}}},
		{NumVars: 1, Objective: []Coef{{Var: 0, Val: math.NaN()}}},
		{NumVars: 1, Rows: []Constraint{{Coefs: []Coef{{Var: 0, Val: 1}}, RHS: math.Inf(1)}}},
		{NumVars: 1, Rows: []Constraint{{Coefs: []Coef{{Var: 2, Val: 1}}}}},
	}
	for i, p := range bad {
		if _, err := Solve(context.Background(), p, Options{}); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

// TestValidateBounds is the bounds half of validation: malformed
// Lower/Upper are ErrBadProblem, well-formed ones (+inf upper, fixed
// variables) pass, and the happy path with bounds does not allocate.
func TestValidateBounds(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name         string
		lower, upper []float64
		ok           bool
	}{
		{"nil", nil, nil, true},
		{"upper only", nil, []float64{3, inf}, true},
		{"fixed", []float64{1, 0}, []float64{1, 2}, true},
		{"short lower", []float64{0}, nil, false},
		{"long upper", nil, []float64{1, 2, 3}, false},
		{"NaN lower", []float64{nan, 0}, nil, false},
		{"NaN upper", nil, []float64{1, nan}, false},
		{"negative lower", []float64{-1, 0}, nil, false},
		{"infinite lower", []float64{inf, 0}, []float64{inf, inf}, false},
		{"lower above upper", []float64{2, 0}, []float64{1, 1}, false},
		{"negative upper", nil, []float64{-1, 1}, false},
	} {
		p := &Problem{NumVars: 2, Objective: dense(1, 1), Lower: c.lower, Upper: c.upper}
		p.AddRow(dense(1, 1), LE, 4)
		_, err := Solve(context.Background(), p, Options{})
		if c.ok && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if !c.ok && !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s: got %v, want ErrBadProblem", c.name, err)
		}
	}
	p := &Problem{NumVars: 2, Lower: []float64{0, 1}, Upper: []float64{2, inf}}
	if n := testing.AllocsPerRun(10, func() { _ = validate(p) }); n != 0 {
		t.Fatalf("validate allocates %v times on a well-formed bounded problem", n)
	}
}

func TestDualsKnownLP(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
	// Classic Dantzig example: x=2, y=6, obj=36, duals = [0, 1.5, 1].
	p := &Problem{NumVars: 2, Objective: dense(3, 5)}
	p.AddRow(dense(1, 0), LE, 4)
	p.AddRow(dense(0, 2), LE, 12)
	p.AddRow(dense(3, 2), LE, 18)
	s := mustSolve(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, 36, 1e-7) {
		t.Fatalf("got %v obj %v", s.Status, s.Objective)
	}
	want := []float64{0, 1.5, 1}
	for i := range want {
		if !almostEq(s.Duals[i], want[i], 1e-7) {
			t.Fatalf("duals = %v, want %v", s.Duals, want)
		}
	}
}

func TestDualsEqualityRow(t *testing.T) {
	// max 2x + 3y s.t. x + y == 4, x <= 3. Optimum x=0? obj: prefer y:
	// y=4, x=0 -> obj 12; dual of equality row = 3 (increasing b by 1
	// adds one more y).
	p := &Problem{NumVars: 2, Objective: dense(2, 3)}
	p.AddRow(dense(1, 1), EQ, 4)
	p.AddRow(dense(1, 0), LE, 3)
	s := mustSolve(t, p)
	if s.Status != Optimal || !almostEq(s.Objective, 12, 1e-7) {
		t.Fatalf("got %v obj %v x %v", s.Status, s.Objective, s.X)
	}
	if !almostEq(s.Duals[0], 3, 1e-7) {
		t.Fatalf("equality dual = %v, want 3", s.Duals[0])
	}
}

func TestDeadline(t *testing.T) {
	// An already-expired deadline must yield IterLimit, not hang.
	p := &Problem{NumVars: 2, Objective: dense(1, 1)}
	p.AddRow(dense(1, 1), LE, 4)
	s, err := Solve(context.Background(), p, Options{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != IterLimit {
		t.Fatalf("status = %v, want iteration-limit", s.Status)
	}
}

// randomLP builds a random bounded-feasible LP: constraints
// a'x <= b with a >= 0 and b > 0 guarantee boundedness (when every
// variable appears) and feasibility (x = 0).
func randomLP(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(8)
	m := 1 + rng.Intn(10)
	p := &Problem{NumVars: n}
	for j := 0; j < n; j++ {
		p.Objective = append(p.Objective, Coef{Var: j, Val: rng.Float64() * 10})
	}
	// A covering row bounds every variable.
	var cover []Coef
	for j := 0; j < n; j++ {
		cover = append(cover, Coef{Var: j, Val: 0.5 + rng.Float64()})
	}
	p.AddRow(cover, LE, 1+rng.Float64()*20)
	for i := 1; i < m; i++ {
		var cs []Coef
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				cs = append(cs, Coef{Var: j, Val: rng.Float64() * 5})
			}
		}
		if len(cs) == 0 {
			continue
		}
		p.AddRow(cs, LE, 0.5+rng.Float64()*15)
	}
	return p
}

// checkCertificate verifies an optimality certificate: X primal
// feasible, duals dual feasible, and the two objectives equal (strong
// duality). Together these prove optimality independent of the solver's
// internal state.
func checkCertificate(p *Problem, s Solution, tol float64) bool {
	// Primal feasibility.
	for j := 0; j < p.NumVars; j++ {
		if s.X[j] < -tol {
			return false
		}
	}
	for i, r := range p.Rows {
		var lhs float64
		for _, c := range r.Coefs {
			lhs += c.Val * s.X[c.Var]
		}
		switch r.Sense {
		case LE:
			if lhs > r.RHS+tol {
				return false
			}
		case GE:
			if lhs < r.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-r.RHS) > tol {
				return false
			}
		}
		_ = i
	}
	// Dual feasibility: for max problems, y_i >= 0 for LE rows, y_i <= 0
	// for GE rows, free for EQ; and A'y >= c componentwise.
	for i, r := range p.Rows {
		switch r.Sense {
		case LE:
			if s.Duals[i] < -tol {
				return false
			}
		case GE:
			if s.Duals[i] > tol {
				return false
			}
		}
	}
	slack := make([]float64, p.NumVars)
	for _, c := range p.Objective {
		slack[c.Var] += c.Val
	}
	for i, r := range p.Rows {
		for _, c := range r.Coefs {
			slack[c.Var] -= c.Val * s.Duals[i]
		}
	}
	for j := 0; j < p.NumVars; j++ {
		if slack[j] > tol { // reduced cost must be <= 0
			return false
		}
	}
	// Strong duality: b'y == c'x.
	var dualObj float64
	for i, r := range p.Rows {
		dualObj += r.RHS * s.Duals[i]
	}
	return math.Abs(dualObj-s.Objective) <= tol*(1+math.Abs(s.Objective))
}

func TestPropertyOptimalityCertificate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		s, err := Solve(context.Background(), p, Options{})
		if err != nil || s.Status != Optimal {
			return false
		}
		return checkCertificate(p, s, 1e-6)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: mixed-sense random LPs either solve with a valid
// certificate or report infeasible/unbounded.
func TestPropertyMixedSenses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(8)
		p := &Problem{NumVars: n}
		for j := 0; j < n; j++ {
			p.Objective = append(p.Objective, Coef{Var: j, Val: rng.NormFloat64() * 5})
		}
		// Box every variable so the LP cannot be unbounded.
		for j := 0; j < n; j++ {
			p.AddRow([]Coef{{Var: j, Val: 1}}, LE, 1+rng.Float64()*10)
		}
		for i := 0; i < m; i++ {
			var cs []Coef
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.5 {
					cs = append(cs, Coef{Var: j, Val: rng.NormFloat64() * 3})
				}
			}
			if len(cs) == 0 {
				continue
			}
			p.AddRow(cs, Sense(rng.Intn(3)), rng.NormFloat64()*5)
		}
		s, err := Solve(context.Background(), p, Options{})
		if err != nil {
			return false
		}
		switch s.Status {
		case Optimal:
			return checkCertificate(p, s, 1e-5)
		case Infeasible:
			return true // accepted; feasibility cross-checked elsewhere
		case Unbounded:
			return false // impossible: all variables boxed
		default:
			return false
		}
	}
	cfg := &quick.Config{MaxCount: 150}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: x=0 feasible LPs are never reported infeasible.
func TestPropertyZeroFeasibleNeverInfeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomLP(rng)
		s, err := Solve(context.Background(), p, Options{})
		return err == nil && s.Status == Optimal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolveMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	n, m := 120, 80
	p := &Problem{NumVars: n}
	for j := 0; j < n; j++ {
		p.Objective = append(p.Objective, Coef{Var: j, Val: rng.Float64() * 10})
	}
	for i := 0; i < m; i++ {
		var cs []Coef
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				cs = append(cs, Coef{Var: j, Val: rng.Float64() * 4})
			}
		}
		p.AddRow(cs, LE, 10+rng.Float64()*30)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Solve(context.Background(), p, Options{})
		if err != nil || s.Status != Optimal {
			b.Fatalf("solve failed: %v %v", err, s.Status)
		}
	}
}
