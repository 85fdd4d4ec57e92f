package model

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/graph"
	"github.com/cloudsched/rasa/internal/mip"
)

// pairProblem is the Fig. 2 scenario: two services, two replicas each,
// three machines, unit affinity.
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

func solveModel(t *testing.T, m *MIPModel) mip.Solution {
	t.Helper()
	sol, err := mip.Solve(context.Background(), &m.Prob, mip.Options{Rounder: m.Rounder()})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func applyPlacements(p *cluster.Problem, pls []Placement) *cluster.Assignment {
	a := cluster.NewAssignment(p.N(), p.M())
	for _, pl := range pls {
		a.Add(pl.Service, pl.Machine, pl.Count)
	}
	return a
}

func TestMIPFullCollocation(t *testing.T) {
	// Capacity 4 lets both containers of both services share a machine:
	// optimal gained affinity = 1.0 (all traffic localized).
	p := pairProblem(4)
	sp := cluster.FullSubproblem(p)
	m, err := BuildMIP(sp)
	if err != nil {
		t.Fatal(err)
	}
	sol := solveModel(t, m)
	if sol.Status != mip.Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	a := applyPlacements(p, m.Extract(sol.X))
	if got := a.GainedAffinity(p); math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("gained = %v, want 1.0", got)
	}
	if vs := a.Check(p, true); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestMIPCapacityLimited(t *testing.T) {
	// Capacity 2: each machine fits two containers, so the best is two
	// A+B pairs on two machines -> gained affinity 1.0 still. Capacity 1
	// forbids any collocation -> gained 0.
	p := pairProblem(2)
	sp := cluster.FullSubproblem(p)
	m, _ := BuildMIP(sp)
	sol := solveModel(t, m)
	a := applyPlacements(p, m.Extract(sol.X))
	if got := a.GainedAffinity(p); math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("cap 2: gained = %v, want 1.0", got)
	}

	p = pairProblem(1)
	sp = cluster.FullSubproblem(p)
	m, _ = BuildMIP(sp)
	sol = solveModel(t, m)
	a = applyPlacements(p, m.Extract(sol.X))
	if got := a.GainedAffinity(p); got > 1e-9 {
		t.Fatalf("cap 1: gained = %v, want 0", got)
	}
	// Only 3 slots exist for 4 containers; the placement bonus must fill
	// every slot rather than dropping placeable containers.
	if got := a.Placed(0) + a.Placed(1); got != 3 {
		t.Fatalf("placed %d containers, want 3 (capacity-bound)", got)
	}
}

func TestMIPAntiAffinity(t *testing.T) {
	// Anti-affinity cap 1 over {A,B} on each machine prevents collocation
	// even with large capacity.
	p := pairProblem(10)
	p.AntiAffinity = []cluster.AntiAffinityRule{{Services: []int{0, 1}, MaxPerHost: 1}}
	sp := cluster.FullSubproblem(p)
	m, _ := BuildMIP(sp)
	sol := solveModel(t, m)
	a := applyPlacements(p, m.Extract(sol.X))
	if got := a.GainedAffinity(p); got > 1e-9 {
		t.Fatalf("gained = %v, want 0 under anti-affinity", got)
	}
	if vs := a.Check(p, false); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestMIPSchedulable(t *testing.T) {
	// A restricted to m0/m1 and B to m2: no machine can host both.
	p := pairProblem(10)
	p.Schedulable = []cluster.Bitmap{cluster.NewBitmap(3), cluster.NewBitmap(3)}
	p.Schedulable[0].Set(0)
	p.Schedulable[0].Set(1)
	p.Schedulable[1].Set(2)
	sp := cluster.FullSubproblem(p)
	m, _ := BuildMIP(sp)
	sol := solveModel(t, m)
	a := applyPlacements(p, m.Extract(sol.X))
	if got := a.GainedAffinity(p); got > 1e-9 {
		t.Fatalf("gained = %v, want 0", got)
	}
	for _, pl := range m.Extract(sol.X) {
		if pl.Service == 1 && pl.Machine != 2 {
			t.Fatalf("B placed on machine %d", pl.Machine)
		}
	}
}

func TestMIPResidualCapacity(t *testing.T) {
	// Residual capacities below raw capacity must be honored.
	p := pairProblem(4)
	sp := cluster.FullSubproblem(p)
	for i := range sp.Capacity {
		sp.Capacity[i] = cluster.Resources{1} // only one slot per machine
	}
	m, _ := BuildMIP(sp)
	sol := solveModel(t, m)
	pls := m.Extract(sol.X)
	perMachine := map[int]int{}
	for _, pl := range pls {
		perMachine[pl.Machine] += pl.Count
	}
	for mach, cnt := range perMachine {
		if cnt > 1 {
			t.Fatalf("machine %d hosts %d > residual 1", mach, cnt)
		}
	}
}

func TestAffinityValueMatchesEvaluation(t *testing.T) {
	p := pairProblem(4)
	sp := cluster.FullSubproblem(p)
	m, _ := BuildMIP(sp)
	sol := solveModel(t, m)
	a := applyPlacements(p, m.Extract(sol.X))
	if diff := math.Abs(m.AffinityValue(sol.X) - a.GainedAffinity(p)); diff > 1e-6 {
		t.Fatalf("model affinity %v vs cluster evaluation %v", m.AffinityValue(sol.X), a.GainedAffinity(p))
	}
}

func TestGroupMachines(t *testing.T) {
	p := pairProblem(4)
	p.Machines[2].Capacity = cluster.Resources{8} // one machine differs
	sp := cluster.FullSubproblem(p)
	groups := GroupMachines(sp)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	var total int
	for _, g := range groups {
		total += g.Count()
	}
	if total != 3 {
		t.Fatalf("grouped machines = %d, want 3", total)
	}
}

func TestGroupMachinesSplitsOnCompat(t *testing.T) {
	p := pairProblem(4)
	p.Schedulable = []cluster.Bitmap{nil, cluster.NewBitmap(3)}
	p.Schedulable[1].Set(0) // B only on m0 -> m0 differs from m1/m2
	sp := cluster.FullSubproblem(p)
	groups := GroupMachines(sp)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
}

func TestPatternValueAndFeasibility(t *testing.T) {
	p := pairProblem(2)
	sp := cluster.FullSubproblem(p)
	groups := GroupMachines(sp)
	if len(groups) != 1 {
		t.Fatalf("groups = %d", len(groups))
	}
	g := &groups[0]
	// Pattern [1,1]: one container of each -> value = min(1/2,1/2) = 0.5.
	if v := PatternValue(sp, []int{1, 1}); math.Abs(v-0.5) > 1e-9 {
		t.Fatalf("value = %v, want 0.5", v)
	}
	if !PatternFeasible(sp, g, []int{1, 1}) {
		t.Fatal("[1,1] should be feasible")
	}
	if PatternFeasible(sp, g, []int{2, 1}) {
		t.Fatal("[2,1] exceeds capacity 2")
	}
	if PatternFeasible(sp, g, []int{3, 0}) {
		t.Fatal("[3,0] exceeds replicas")
	}
	if PatternFeasible(sp, g, []int{-1, 0}) {
		t.Fatal("negative counts must be rejected")
	}
}

func TestPatternFeasibleRespectsAnti(t *testing.T) {
	p := pairProblem(10)
	p.AntiAffinity = []cluster.AntiAffinityRule{{Services: []int{0, 1}, MaxPerHost: 1}}
	sp := cluster.FullSubproblem(p)
	groups := GroupMachines(sp)
	if PatternFeasible(sp, &groups[0], []int{1, 1}) {
		t.Fatal("anti-affinity must reject [1,1]")
	}
	if !PatternFeasible(sp, &groups[0], []int{1, 0}) {
		t.Fatal("[1,0] should be feasible")
	}
}

// randomSubproblem builds a small random subproblem with guaranteed
// total capacity.
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

// Property: solved placements are always constraint-feasible and never
// over-place a service.
func TestPropertySolutionsFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := randomSubproblem(rng)
		m, err := BuildMIP(sp)
		if err != nil {
			return false
		}
		sol, err := mip.Solve(context.Background(), &m.Prob, mip.Options{Rounder: m.Rounder()})
		if err != nil || sol.X == nil {
			return false
		}
		a := applyPlacements(sp.P, m.Extract(sol.X))
		for s := range sp.P.Services {
			if a.Placed(s) > sp.P.Services[s].Replicas {
				return false
			}
		}
		return len(a.Check(sp.P, false)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the rounder always produces feasible points whose reported
// objective matches an independent evaluation.
func TestPropertyRounderConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := randomSubproblem(rng)
		m, err := BuildMIP(sp)
		if err != nil {
			return false
		}
		// Feed the rounder a random fractional point within [0, d].
		x := make([]float64, m.NumVars())
		for si := 0; si < len(sp.Services); si++ {
			for mi := 0; mi < len(sp.Machines); mi++ {
				if v := m.xIdx[si*m.nM+mi]; v >= 0 {
					x[v] = rng.Float64() * float64(sp.P.Services[sp.Services[si]].Replicas)
				}
			}
		}
		rx, obj, ok := m.Rounder()(x)
		if !ok {
			return false
		}
		a := applyPlacements(sp.P, m.Extract(rx))
		if len(a.Check(sp.P, false)) != 0 {
			return false
		}
		var bonus float64
		for i := 0; i < m.nS*m.nM; i++ {
			if v := m.xIdx[i]; v >= 0 {
				bonus += m.placementBonus * rx[v]
			}
		}
		want := a.GainedAffinity(sp.P) + bonus
		return math.Abs(obj-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildMIP(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	sp := randomSubproblem(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildMIP(sp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveSubproblemMIP(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	sp := randomSubproblem(rng)
	m, err := BuildMIP(sp)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mip.Solve(context.Background(), &m.Prob, mip.Options{Rounder: m.Rounder()}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestZeroWeightEdgeIsAbsent: an edge zeroed in place by graph.SetEdge,
// as UpdateAffinity with weight 0 leaves it, carries no affinity, so the
// direct MIP is the same model, and solves the same way, as on a problem
// that never had the edge.
func TestZeroWeightEdgeIsAbsent(t *testing.T) {
	build := func(zero bool) *MIPModel {
		p := pairProblem(3)
		p.Services = append(p.Services, cluster.Service{Name: "C", Replicas: 3, Request: cluster.Resources{1}})
		p.Affinity = graph.New(3)
		if zero {
			p.Affinity.AddEdge(0, 1, 0.7)
		}
		p.Affinity.AddEdge(0, 2, 0.5)
		p.Affinity.AddEdge(1, 2, 0.9)
		if zero {
			p.Affinity.SetEdge(0, 1, 0)
		}
		m, err := BuildMIP(cluster.FullSubproblem(p))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	zeroed, without := build(true), build(false)
	if zeroed.NumRows() != without.NumRows() || zeroed.NumVars() != without.NumVars() {
		t.Fatalf("model %d x %d with the zeroed edge, %d x %d without", zeroed.NumRows(), zeroed.NumVars(), without.NumRows(), without.NumVars())
	}
	a, b := solveModel(t, zeroed), solveModel(t, without)
	a.Stats.Wall, b.Stats.Wall = 0, 0
	if a.Objective != b.Objective || a.Stats != b.Stats || !reflect.DeepEqual(zeroed.Extract(a.X), without.Extract(b.X)) {
		t.Fatalf("zeroed edge: %v %+v %v\nwithout it: %v %+v %v", a.Objective, a.Stats, zeroed.Extract(a.X), b.Objective, b.Stats, without.Extract(b.X))
	}
}
