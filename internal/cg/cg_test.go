package cg

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/graph"
	"github.com/cloudsched/rasa/internal/mip"
	"github.com/cloudsched/rasa/internal/model"
)

func pairProblem(capacity float64) *cluster.Problem {
	g := graph.New(2)
	g.AddEdge(0, 1, 1.0)
	return &cluster.Problem{
		ResourceNames: []string{"cpu"},
		Services: []cluster.Service{
			{Name: "A", Replicas: 2, Request: cluster.Resources{1}},
			{Name: "B", Replicas: 2, Request: cluster.Resources{1}},
		},
		Machines: []cluster.Machine{
			{Name: "m0", Capacity: cluster.Resources{capacity}},
			{Name: "m1", Capacity: cluster.Resources{capacity}},
			{Name: "m2", Capacity: cluster.Resources{capacity}},
		},
		Affinity: g,
	}
}

func toAssignment(p *cluster.Problem, pls []model.Placement) *cluster.Assignment {
	a := cluster.NewAssignment(p.N(), p.M())
	for _, pl := range pls {
		a.Add(pl.Service, pl.Machine, pl.Count)
	}
	return a
}

func TestCGFullCollocation(t *testing.T) {
	p := pairProblem(4)
	res, err := Solve(context.Background(), cluster.FullSubproblem(p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-1.0) > 1e-6 {
		t.Fatalf("objective = %v, want 1.0", res.Objective)
	}
	a := toAssignment(p, res.Placements)
	if vs := a.Check(p, true); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestCGPairedPacking(t *testing.T) {
	// Capacity 2: optimum still 1.0 via two (A,B) pairs.
	p := pairProblem(2)
	res, err := Solve(context.Background(), cluster.FullSubproblem(p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-1.0) > 1e-6 {
		t.Fatalf("objective = %v, want 1.0", res.Objective)
	}
}

func TestCGPlacesAllContainersWhenPossible(t *testing.T) {
	p := pairProblem(2)
	res, err := Solve(context.Background(), cluster.FullSubproblem(p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := toAssignment(p, res.Placements)
	if a.Placed(0) != 2 || a.Placed(1) != 2 {
		t.Fatalf("placed %d/%d, want 2/2", a.Placed(0), a.Placed(1))
	}
}

func TestCGAntiAffinity(t *testing.T) {
	p := pairProblem(10)
	p.AntiAffinity = []cluster.AntiAffinityRule{{Services: []int{0, 1}, MaxPerHost: 1}}
	res, err := Solve(context.Background(), cluster.FullSubproblem(p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > 1e-9 {
		t.Fatalf("objective = %v, want 0", res.Objective)
	}
	a := toAssignment(p, res.Placements)
	if vs := a.Check(p, false); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestCGDeadlineAnytime(t *testing.T) {
	// An expired deadline must still return a feasible (possibly greedy)
	// schedule without error.
	p := pairProblem(4)
	res, err := Solve(context.Background(), cluster.FullSubproblem(p), Options{Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	a := toAssignment(p, res.Placements)
	if vs := a.Check(p, false); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestCGMatchesMIPOnSmallInstances(t *testing.T) {
	// On small instances CG should match the exact MIP optimum: the
	// sub-optimality the GCN classifier learns about appears only at
	// scale, not on toy problems.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		sp := randomSubproblem(rng)
		mm, err := model.BuildMIP(sp)
		if err != nil {
			t.Fatal(err)
		}
		msol, err := mip.Solve(context.Background(), &mm.Prob, mip.Options{Rounder: mm.Rounder()})
		if err != nil || msol.X == nil {
			t.Fatalf("mip failed: %v %v", err, msol.Status)
		}
		exact := mm.AffinityValue(msol.X)

		res, err := Solve(context.Background(), sp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Objective < exact-0.15*(exact+1e-9)-1e-6 {
			t.Fatalf("trial %d: cg %v far below mip %v", trial, res.Objective, exact)
		}
	}
}

func randomSubproblem(rng *rand.Rand) *cluster.Subproblem {
	n := 2 + rng.Intn(4)
	mN := 2 + rng.Intn(3)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64()+0.1)
	}
	p := &cluster.Problem{ResourceNames: []string{"cpu"}, Affinity: g}
	for s := 0; s < n; s++ {
		p.Services = append(p.Services, cluster.Service{
			Name: "s", Replicas: 1 + rng.Intn(3), Request: cluster.Resources{1},
		})
	}
	for j := 0; j < mN; j++ {
		p.Machines = append(p.Machines, cluster.Machine{
			Name: "m", Capacity: cluster.Resources{float64(2 + rng.Intn(6))},
		})
	}
	return cluster.FullSubproblem(p)
}

// Property: CG schedules are always feasible and never over-place.
func TestPropertyCGFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := randomSubproblem(rng)
		res, err := Solve(context.Background(), sp, Options{MaxIters: 10})
		if err != nil {
			return false
		}
		a := toAssignment(sp.P, res.Placements)
		for s := range sp.P.Services {
			if a.Placed(s) > sp.P.Services[s].Replicas {
				return false
			}
		}
		return len(a.Check(sp.P, false)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the reported objective matches an independent evaluation of
// the returned placements.
func TestPropertyCGObjectiveConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := randomSubproblem(rng)
		res, err := Solve(context.Background(), sp, Options{MaxIters: 10})
		if err != nil {
			return false
		}
		a := toAssignment(sp.P, res.Placements)
		return math.Abs(a.GainedAffinity(sp.P)-res.Objective) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCGSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	sp := randomSubproblem(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(context.Background(), sp, Options{MaxIters: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// zeroEdgeProblems returns one random cluster twice: once with an edge
// (0, 1) zeroed in place by graph.SetEdge, as UpdateAffinity with weight
// 0 leaves it, and once built without that edge.
func zeroEdgeProblems() (zeroed, without *cluster.Problem) {
	build := func(zero bool) *cluster.Problem {
		rng := rand.New(rand.NewSource(3))
		const nS = 8
		g := graph.New(nS)
		if zero {
			g.AddEdge(0, 1, 0.7)
		}
		for k := 0; k < 14; k++ {
			u, v, w := rng.Intn(nS), rng.Intn(nS), 0.1+rng.Float64()
			if u+v != 1 { // every pair but (0, 1)
				g.AddEdge(u, v, w)
			}
		}
		if zero {
			g.SetEdge(0, 1, 0)
		}
		p := &cluster.Problem{ResourceNames: []string{"cpu"}, Affinity: g}
		for s := 0; s < nS; s++ {
			p.Services = append(p.Services, cluster.Service{Name: "s", Replicas: 1 + rng.Intn(3), Request: cluster.Resources{1}})
		}
		for m := 0; m < 3; m++ {
			p.Machines = append(p.Machines, cluster.Machine{Name: "m", Capacity: cluster.Resources{float64(3 + m)}})
		}
		return p
	}
	return build(true), build(false)
}

// TestZeroWeightEdgeIsAbsent: an edge zeroed in place carries no
// affinity, so CG builds the same pricing models and returns the same
// solve, effort included, as on a problem that never had the edge.
func TestZeroWeightEdgeIsAbsent(t *testing.T) {
	zeroed, without := zeroEdgeProblems()
	var res [2]Result
	for k, p := range []*cluster.Problem{zeroed, without} {
		sp := cluster.FullSubproblem(p)
		r, err := Solve(context.Background(), sp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		r.Stats.Wall, r.Stats.MasterTime, r.Stats.PricingTime, r.Stats.RoundingTime = 0, 0, 0, 0
		res[k] = r
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Fatalf("zeroed edge: %+v\nwithout it: %+v", res[0], res[1])
	}
	sts := [2]*state{}
	for k, p := range []*cluster.Problem{zeroed, without} {
		sp := cluster.FullSubproblem(p)
		sts[k] = &state{sp: sp, groups: model.GroupMachines(sp)}
		sts[k].buildEdges()
	}
	for gi := range sts[0].groups {
		a, b := sts[0].buildPricing(gi).prob.LP, sts[1].buildPricing(gi).prob.LP
		if len(a.Rows) != len(b.Rows) || a.NumVars != b.NumVars {
			t.Fatalf("group %d: pricing model %d x %d with the zeroed edge, %d x %d without", gi, len(a.Rows), a.NumVars, len(b.Rows), b.NumVars)
		}
	}
}
