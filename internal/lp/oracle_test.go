package lp

import (
	"math"
	"math/rand"
	"testing"
)

// oracle solves a small LP by brute force, with no simplex at all: it
// enumerates the vertices of the feasible region and returns the status
// (Optimal, Infeasible or Unbounded) and, when Optimal, the optimum.
// Every variable is bounded below by a finite Lower >= 0, so a feasible
// region has a vertex, and a bounded optimum is attained at one. The
// LP is unbounded exactly when it is feasible and its recession cone
// holds a direction d with c'd > 0. That cone is pointed (d >= 0), so
// the normalization sum(d) = 1 cuts it to a polytope whose vertices the
// same enumeration searches. The work grows combinatorially; it is
// meant for LPs up to about 10 rows × 8 columns.
func oracle(p *Problem) (Status, float64) {
	o := newOracleLP(p)
	feasible, best := o.vertexMax()
	if !feasible {
		return Infeasible, 0
	}
	// The recession cone: every row against a zero right-hand side,
	// columns with a finite upper bound fixed at 0, and sum(d) = 1.
	ray := &oracleLP{m: o.m + 1, n: o.n, c: o.c}
	ray.a = append(ray.a, o.a...)
	ray.a = append(ray.a, make([]float64, o.n)...)
	for j := 0; j < o.n; j++ {
		ray.a[o.m*o.n+j] = 1
	}
	ray.b = make([]float64, ray.m)
	ray.b[o.m] = 1
	ray.sense = append(append([]Sense(nil), o.sense...), EQ)
	ray.lo, ray.up = make([]float64, o.n), make([]float64, o.n)
	for j := range ray.up {
		ray.up[j] = math.Inf(1)
		if !math.IsInf(o.up[j], 1) {
			ray.up[j] = 0
		}
	}
	if ok, slope := ray.vertexMax(); ok && slope > 1e-9 {
		return Unbounded, 0
	}
	return Optimal, best
}

// oracleLP is a Problem in dense form: a is m×n row-major.
type oracleLP struct {
	m, n   int
	a, b   []float64
	sense  []Sense
	lo, up []float64
	c      []float64
}

func newOracleLP(p *Problem) *oracleLP {
	m, n := len(p.Rows), p.NumVars
	o := &oracleLP{m: m, n: n, a: make([]float64, m*n), b: make([]float64, m), sense: make([]Sense, m),
		lo: make([]float64, n), up: make([]float64, n), c: make([]float64, n)}
	for i, r := range p.Rows {
		for _, c := range r.Coefs {
			o.a[i*n+c.Var] += c.Val
		}
		o.b[i], o.sense[i] = r.RHS, r.Sense
	}
	for j := 0; j < n; j++ {
		o.lo[j], o.up[j] = p.bound(j)
	}
	for _, c := range p.Objective {
		o.c[c.Var] += c.Val
	}
	return o
}

// vertexMax enumerates every vertex and reports whether there is one
// and the largest objective over them. A vertex is where n linearly
// independent constraints hold with equality: k rows S and, for the
// n-k columns outside a set B of k columns, one bound each. Each
// choice with A[S,B] nonsingular fixes one point, kept when it
// satisfies every row and bound.
func (o *oracleLP) vertexMax() (feasible bool, best float64) {
	best = math.Inf(-1)
	x := make([]float64, o.n)
	inB := make([]bool, o.n)
	for k := 0; k <= min(o.m, o.n); k++ {
		f := newLU(k)
		rhs := make([]float64, k)
		forSubsets(o.m, k, func(rows []int) {
			forSubsets(o.n, k, func(cols []int) {
				for j := range inB {
					inB[j] = false
				}
				for r, i := range rows {
					for q, j := range cols {
						f.a[r*k+q] = o.a[i*o.n+j]
					}
				}
				for _, j := range cols {
					inB[j] = true
				}
				if !f.factor() {
					return
				}
				var nonbasic []int
				for j := 0; j < o.n; j++ {
					if !inB[j] {
						nonbasic = append(nonbasic, j)
					}
				}
				// Each nonbasic column sits at its lower bound, or at a
				// distinct finite upper one: count through the choices.
				atUp := make([]bool, len(nonbasic))
				for {
					for q, j := range nonbasic {
						x[j] = o.lo[j]
						if atUp[q] {
							x[j] = o.up[j]
						}
					}
					for r, i := range rows {
						rhs[r] = o.b[i]
						for _, j := range nonbasic {
							rhs[r] -= o.a[i*o.n+j] * x[j]
						}
					}
					f.solve(rhs)
					for q, j := range cols {
						x[j] = rhs[q]
					}
					if o.feasible(x) {
						feasible = true
						obj := 0.0
						for j, cj := range o.c {
							obj += cj * x[j]
						}
						best = math.Max(best, obj)
					}
					q := 0
					for ; q < len(nonbasic); q++ {
						j := nonbasic[q]
						if !atUp[q] && !math.IsInf(o.up[j], 1) && o.up[j] > o.lo[j] {
							atUp[q] = true
							break
						}
						atUp[q] = false
					}
					if q == len(nonbasic) {
						break
					}
				}
			})
		})
	}
	return feasible, best
}

// feasible reports whether x satisfies every row and bound.
func (o *oracleLP) feasible(x []float64) bool {
	const tol = 1e-7
	for j, v := range x {
		if v < o.lo[j]-tol || v > o.up[j]+tol {
			return false
		}
	}
	for i := 0; i < o.m; i++ {
		lhs := 0.0
		for j, v := range x {
			lhs += o.a[i*o.n+j] * v
		}
		d := lhs - o.b[i]
		slack := tol * (1 + math.Abs(o.b[i]))
		switch o.sense[i] {
		case LE:
			if d > slack {
				return false
			}
		case GE:
			if d < -slack {
				return false
			}
		case EQ:
			if math.Abs(d) > slack {
				return false
			}
		}
	}
	return true
}

// forSubsets calls fn with every k-subset of 0..n-1 in increasing
// order; fn must not keep the slice.
func forSubsets(n, k int, fn func([]int)) {
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		fn(idx)
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for q := i + 1; q < k; q++ {
			idx[q] = idx[q-1] + 1
		}
	}
}

// lu is a k×k LU factorization with partial pivoting.
type lu struct {
	k    int
	a    []float64
	perm []int
}

func newLU(k int) *lu { return &lu{k: k, a: make([]float64, k*k), perm: make([]int, k)} }

// factor factors a in place and reports whether it is nonsingular.
func (f *lu) factor() bool {
	k, a := f.k, f.a
	for c := 0; c < k; c++ {
		p := c
		for r := c + 1; r < k; r++ {
			if math.Abs(a[r*k+c]) > math.Abs(a[p*k+c]) {
				p = r
			}
		}
		if math.Abs(a[p*k+c]) < 1e-9 {
			return false
		}
		f.perm[c] = p
		if p != c {
			for q := 0; q < k; q++ {
				a[c*k+q], a[p*k+q] = a[p*k+q], a[c*k+q]
			}
		}
		for r := c + 1; r < k; r++ {
			l := a[r*k+c] / a[c*k+c]
			a[r*k+c] = l
			for q := c + 1; q < k; q++ {
				a[r*k+q] -= l * a[c*k+q]
			}
		}
	}
	return true
}

// solve overwrites b with the solution of a x = b.
func (f *lu) solve(b []float64) {
	k, a := f.k, f.a
	for c := 0; c < k; c++ {
		if p := f.perm[c]; p != c {
			b[c], b[p] = b[p], b[c]
		}
	}
	for c := 0; c < k; c++ {
		for r := c + 1; r < k; r++ {
			b[r] -= a[r*k+c] * b[c]
		}
	}
	for r := k - 1; r >= 0; r-- {
		for q := r + 1; q < k; q++ {
			b[r] -= a[r*k+q] * b[q]
		}
		b[r] /= a[r*k+r]
	}
}

// checkOracle solves p with the simplex and fails the test unless it
// matches the oracle's status and optimum and, when Optimal, its
// solution certifies itself (checkCertificates).
func checkOracle(t *testing.T, tag string, p *Problem) {
	t.Helper()
	sol := mustSolve(t, p)
	st, opt := oracle(p)
	if sol.Status != st {
		t.Fatalf("%s: simplex status %v, oracle %v (problem %+v)", tag, sol.Status, st, p)
	}
	if st != Optimal {
		return
	}
	if math.Abs(sol.Objective-opt) > 1e-6*(1+math.Abs(opt)) {
		t.Fatalf("%s: simplex objective %.12g, oracle %.12g (problem %+v)", tag, sol.Objective, opt, p)
	}
	checkCertificates(t, tag, p, sol)
}

// TestOracleRandom checks the simplex against the brute-force oracle on
// random small LPs with redundant rows, negative right-hand sides and
// variable bounds, and counts every status so the generator is seen to
// reach all three.
func TestOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[Status]int{}
	for trial := 0; trial < 800; trial++ {
		p := withRandomBounds(rng, randomMixedLP(rng))
		checkOracle(t, "trial", p)
		st, _ := oracle(p)
		seen[st]++
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if seen[st] < 20 {
			t.Fatalf("only %d %v trials (%v); generator too narrow", seen[st], st, seen)
		}
	}
	t.Logf("statuses: %v", seen)
}

// FuzzOracle is the oracle check as a fuzz target: any seed whose LP
// the simplex gets wrong in status, optimum or certificate is a
// crasher. `go test` runs the seed corpus; `go test -fuzz=FuzzOracle`
// explores.
func FuzzOracle(f *testing.F) {
	for _, s := range []int64{1, 7, 42, 1234, -9} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		checkOracle(t, "fuzz", withRandomBounds(rng, randomMixedLP(rng)))
	})
}

// TestOracleKnown pins the oracle itself on LPs whose answers are known
// by hand, so a disagreement above is the simplex's fault.
func TestOracleKnown(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18: optimum 36.
	dantzig := &Problem{NumVars: 2, Objective: dense(3, 5)}
	dantzig.AddRow(dense(1, 0), LE, 4)
	dantzig.AddRow(dense(0, 2), LE, 12)
	dantzig.AddRow(dense(3, 2), LE, 18)
	// The same with y <= 5 as a bound: optimum 3·(8/3) + 25 = 33.
	bounded := &Problem{NumVars: 2, Objective: dantzig.Objective, Rows: dantzig.Rows, Upper: []float64{math.Inf(1), 5}}
	// x + y >= 1 with x <= 0.5, y <= 0.25: infeasible only through the bounds.
	boundsInfeasible := &Problem{NumVars: 2, Objective: dense(1, 1), Upper: []float64{0.5, 0.25}}
	boundsInfeasible.AddRow(dense(1, 1), GE, 1)
	// max x - y s.t. x - y <= 1, x + y >= 2: x - y is capped at 1.
	cappedRay := &Problem{NumVars: 2, Objective: dense(1, -1)}
	cappedRay.AddRow(dense(1, -1), LE, 1)
	cappedRay.AddRow(dense(1, 1), GE, 2)
	// max x + y s.t. x - y <= 1: unbounded along (1, 1).
	unbounded := &Problem{NumVars: 2, Objective: dense(1, 1)}
	unbounded.AddRow(dense(1, -1), LE, 1)
	// The same with x <= 3 bounded and y free above: still unbounded in y.
	halfBounded := &Problem{NumVars: 2, Objective: dense(1, 1), Rows: unbounded.Rows, Upper: []float64{3, math.Inf(1)}}
	// And with both bounded: optimum x = 3, y = 4 from the bounds.
	bothBounded := &Problem{NumVars: 2, Objective: dense(1, 1), Rows: unbounded.Rows, Upper: []float64{3, 4}}
	// x = 2 twice over (a redundant equality) and x >= 1 as a lower bound.
	redundantEq := &Problem{NumVars: 1, Objective: dense(-1), Lower: []float64{1}}
	redundantEq.AddRow(dense(1), EQ, 2)
	redundantEq.AddRow(dense(2), EQ, 4)
	// max 3x + y s.t. 2x <= 4, x >= 2, x + y <= 5: singleton rows pin
	// x = 2, which leaves y <= 3.
	chain := &Problem{NumVars: 2, Objective: dense(3, 1)}
	chain.AddRow(dense(2), LE, 4)
	chain.AddRow(dense(1), GE, 2)
	chain.AddRow(dense(1, 1), LE, 5)
	// x <= 1 and x >= 2 as singleton rows.
	crossing := &Problem{NumVars: 1, Objective: dense(1)}
	crossing.AddRow(dense(1), LE, 1)
	crossing.AddRow(dense(1), GE, 2)
	// A row whose coefficients cancel is a check on its right-hand side
	// alone: 0 <= 1 holds, 0 <= -1 does not.
	cancelled := func(rhs float64) *Problem {
		p := &Problem{NumVars: 1, Objective: dense(-1)}
		p.AddRow([]Coef{{Var: 0, Val: 1}, {Var: 0, Val: -1}}, LE, rhs)
		p.AddRow(dense(1), LE, 3)
		return p
	}
	// max x - 2z s.t. x + z <= 4, x <= 3: z only costs, so x = 3, z = 0.
	dominated := &Problem{NumVars: 2, Objective: dense(1, -2)}
	dominated.AddRow(dense(1, 1), LE, 4)
	dominated.AddRow(dense(1), LE, 3)
	// y is in no row: unbounded, unless the rows are infeasible.
	freeColumn := &Problem{NumVars: 2, Objective: dense(1, 1)}
	freeColumn.AddRow(dense(1), LE, 3)
	freeInfeasible := withRows(freeColumn, []Constraint{{Coefs: dense(1), Sense: GE, RHS: 5}})
	for _, c := range []struct {
		name string
		p    *Problem
		st   Status
		opt  float64
	}{
		{"singleton chain", chain, Optimal, 9},
		{"crossing singletons", crossing, Infeasible, 0},
		{"cancelled row holds", cancelled(1), Optimal, 0},
		{"cancelled row fails", cancelled(-1), Infeasible, 0},
		{"dominated column", dominated, Optimal, 3},
		{"free column", freeColumn, Unbounded, 0},
		{"free column, infeasible rows", freeInfeasible, Infeasible, 0},
		{"dantzig", dantzig, Optimal, 36},
		{"bounded", bounded, Optimal, 33},
		{"bounds infeasible", boundsInfeasible, Infeasible, 0},
		{"capped ray", cappedRay, Optimal, 1},
		{"unbounded", unbounded, Unbounded, 0},
		{"half bounded", halfBounded, Unbounded, 0},
		{"both bounded", bothBounded, Optimal, 7},
		{"redundant equality", redundantEq, Optimal, -2},
	} {
		st, opt := oracle(c.p)
		if st != c.st || math.Abs(opt-c.opt) > 1e-9 {
			t.Errorf("%s: oracle %v %g, want %v %g", c.name, st, opt, c.st, c.opt)
		}
		checkOracle(t, c.name, c.p)
	}
}
