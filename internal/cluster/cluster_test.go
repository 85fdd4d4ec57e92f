package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/cloudsched/rasa/internal/graph"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{4, 8}
	b := Resources{1, 2}
	if got := a.Add(b); !almostEq(got[0], 5) || !almostEq(got[1], 10) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); !almostEq(got[0], 3) || !almostEq(got[1], 6) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(0.5); !almostEq(got[0], 2) || !almostEq(got[1], 4) {
		t.Fatalf("Scale = %v", got)
	}
	if !b.Fits(a) {
		t.Fatal("b should fit in a")
	}
	if a.Fits(b) {
		t.Fatal("a should not fit in b")
	}
	// Tolerance: tiny overshoot still fits.
	if !(Resources{4 + 1e-12, 8}).Fits(a) {
		t.Fatal("epsilon overshoot should fit")
	}
}

func TestBitmap(t *testing.T) {
	b := NewBitmap(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	for _, i := range []int{0, 64, 129} {
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(128) {
		t.Fatal("unexpected bits set")
	}
	c := b.Clone()
	c.Set(1)
	if b.Get(1) {
		t.Fatal("clone aliased underlying storage")
	}
}

// twoServiceProblem builds the Fig. 2 example: services A and B with 2
// containers each, where one machine hosts one container of each.
func twoServiceProblem() (*Problem, *Assignment) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1.0)
	p := &Problem{
		ResourceNames: []string{"cpu"},
		Services: []Service{
			{Name: "A", Replicas: 2, Request: Resources{1}},
			{Name: "B", Replicas: 2, Request: Resources{1}},
		},
		Machines: []Machine{
			{Name: "m0", Capacity: Resources{4}},
			{Name: "m1", Capacity: Resources{4}},
			{Name: "m2", Capacity: Resources{4}},
		},
		Affinity: g,
	}
	a := NewAssignment(2, 3)
	a.Set(0, 0, 1) // A on m0
	a.Set(1, 0, 1) // B on m0 -> collocated pair
	a.Set(0, 1, 1) // A on m1
	a.Set(1, 2, 1) // B on m2
	return p, a
}

func TestGainedAffinityFig2(t *testing.T) {
	p, a := twoServiceProblem()
	// Exactly one of two containers of each service is collocated:
	// gained = w * min(1/2, 1/2) = 0.5.
	if got := a.GainedAffinity(p); !almostEq(got, 0.5) {
		t.Fatalf("gained affinity = %v, want 0.5", got)
	}
	if got := a.PairGainedAffinity(p, 0, 1); !almostEq(got, 0.5) {
		t.Fatalf("pair gained affinity = %v, want 0.5", got)
	}
	if got := a.PairGainedAffinity(p, 1, 0); !almostEq(got, 0.5) {
		t.Fatalf("pair gained affinity reversed = %v, want 0.5", got)
	}
}

func TestGainedAffinityAsymmetricReplicas(t *testing.T) {
	// Service A has 4 replicas, B has 2. On m0: 2 of A, 1 of B.
	// gained = w * min(2/4, 1/2) = w * 0.5.
	g := graph.New(2)
	g.AddEdge(0, 1, 3.0)
	p := &Problem{
		ResourceNames: []string{"cpu"},
		Services: []Service{
			{Name: "A", Replicas: 4, Request: Resources{1}},
			{Name: "B", Replicas: 2, Request: Resources{1}},
		},
		Machines: []Machine{{Name: "m0", Capacity: Resources{10}}, {Name: "m1", Capacity: Resources{10}}},
		Affinity: g,
	}
	a := NewAssignment(2, 2)
	a.Set(0, 0, 2)
	a.Set(1, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 1, 1)
	// Both machines contribute 3*min(0.5,0.5)=1.5 -> 3.0 total = full.
	if got := a.GainedAffinity(p); !almostEq(got, 3.0) {
		t.Fatalf("gained = %v, want 3.0", got)
	}
}

func TestGainedAffinityNoEdge(t *testing.T) {
	p, a := twoServiceProblem()
	if got := a.PairGainedAffinity(p, 0, 0); got != 0 {
		t.Fatalf("self pair = %v, want 0", got)
	}
	// Remove the edge by using a fresh graph.
	p.Affinity = graph.New(2)
	if got := a.GainedAffinity(p); got != 0 {
		t.Fatalf("gained without edges = %v, want 0", got)
	}
}

func TestAssignmentBasics(t *testing.T) {
	a := NewAssignment(2, 3)
	a.Set(0, 1, 2)
	a.Add(0, 1, 1)
	if a.Get(0, 1) != 3 {
		t.Fatalf("Get = %d, want 3", a.Get(0, 1))
	}
	a.Add(0, 2, 1)
	if a.Placed(0) != 4 {
		t.Fatalf("Placed = %d, want 4", a.Placed(0))
	}
	ms := a.MachinesOf(0)
	if len(ms) != 2 || ms[0] != 1 || ms[1] != 2 {
		t.Fatalf("MachinesOf = %v", ms)
	}
	a.Set(0, 1, 0)
	if len(a.MachinesOf(0)) != 1 {
		t.Fatal("Set 0 should remove the entry")
	}
	var visits int
	a.EachPlacement(func(s, m, c int) { visits++ })
	if visits != 1 {
		t.Fatalf("EachPlacement visits = %d, want 1", visits)
	}
}

func TestAssignmentSetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := NewAssignment(1, 1)
	a.Set(0, 0, -1)
}

func TestAssignmentClone(t *testing.T) {
	a := NewAssignment(2, 2)
	a.Set(0, 0, 1)
	c := a.Clone()
	c.Set(0, 0, 5)
	if a.Get(0, 0) != 1 {
		t.Fatal("clone aliased storage")
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	g := graph.New(2)
	p := &Problem{
		ResourceNames: []string{"cpu"},
		Services: []Service{
			{Name: "A", Replicas: 2, Request: Resources{2}},
			{Name: "B", Replicas: 1, Request: Resources{2}},
		},
		Machines:     []Machine{{Name: "m0", Capacity: Resources{3}}, {Name: "m1", Capacity: Resources{8}}},
		Affinity:     g,
		AntiAffinity: []AntiAffinityRule{{Services: []int{0, 1}, MaxPerHost: 2}},
		Schedulable:  []Bitmap{nil, NewBitmap(2)},
	}
	p.Schedulable[1].Set(1) // B only on m1

	a := NewAssignment(2, 2)
	a.Set(0, 0, 2) // 4 cpu on a 3-cpu machine: resource violation
	a.Set(1, 0, 1) // B on m0: schedulable violation; also anti-affinity 3 > 2
	// SLA: A placed 2 (ok), B placed 1 (ok).
	vs := a.Check(p, true)
	kinds := map[string]int{}
	for _, v := range vs {
		kinds[v.Kind]++
	}
	if kinds["resource"] != 1 || kinds["schedulable"] != 1 || kinds["anti-affinity"] != 1 {
		t.Fatalf("violations = %v", vs)
	}

	// Under-placement reported only when SLA required.
	b := NewAssignment(2, 2)
	b.Set(0, 1, 1)
	if vs := b.Check(p, false); len(vs) != 0 {
		t.Fatalf("relaxed check violations = %v", vs)
	}
	vs = b.Check(p, true)
	if len(vs) != 2 { // both services under-placed
		t.Fatalf("strict check violations = %v", vs)
	}
	for _, v := range vs {
		if v.Kind != "sla" {
			t.Fatalf("unexpected violation %v", v)
		}
	}
}

func TestValidate(t *testing.T) {
	good := func() *Problem {
		g := graph.New(1)
		return &Problem{
			ResourceNames: []string{"cpu"},
			Services:      []Service{{Name: "A", Replicas: 1, Request: Resources{1}}},
			Machines:      []Machine{{Name: "m", Capacity: Resources{1}}},
			Affinity:      g,
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Problem)
	}{
		{"no resources", func(p *Problem) { p.ResourceNames = nil }},
		{"zero replicas", func(p *Problem) { p.Services[0].Replicas = 0 }},
		{"bad request dim", func(p *Problem) { p.Services[0].Request = Resources{1, 2} }},
		{"negative request", func(p *Problem) { p.Services[0].Request = Resources{-1} }},
		{"nan capacity", func(p *Problem) { p.Machines[0].Capacity = Resources{math.NaN()} }},
		{"bad capacity dim", func(p *Problem) { p.Machines[0].Capacity = Resources{} }},
		{"nil graph", func(p *Problem) { p.Affinity = nil }},
		{"graph size mismatch", func(p *Problem) { p.Affinity = graph.New(5) }},
		{"anti-affinity oob", func(p *Problem) {
			p.AntiAffinity = []AntiAffinityRule{{Services: []int{7}, MaxPerHost: 1}}
		}},
		{"anti-affinity negative cap", func(p *Problem) {
			p.AntiAffinity = []AntiAffinityRule{{Services: []int{0}, MaxPerHost: -1}}
		}},
		{"schedulable rows mismatch", func(p *Problem) { p.Schedulable = []Bitmap{nil, nil} }},
	}
	for _, tc := range cases {
		p := good()
		tc.mutate(p)
		if err := p.Validate(); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

func TestMoveCount(t *testing.T) {
	a := NewAssignment(2, 3)
	a.Set(0, 0, 2)
	a.Set(1, 1, 1)
	b := NewAssignment(2, 3)
	b.Set(0, 0, 1) // one of A's containers moves away
	b.Set(0, 2, 1)
	b.Set(1, 1, 1) // unchanged
	if got := MoveCount(a, b); got != 1 {
		t.Fatalf("MoveCount = %d, want 1", got)
	}
	if got := MoveCount(a, a); got != 0 {
		t.Fatalf("MoveCount self = %d, want 0", got)
	}
}

// randomProblem builds a small random feasible-ish problem plus a random
// SLA-complete assignment (ignoring resource limits, which is fine for
// affinity-math properties).
func randomProblem(rng *rand.Rand) (*Problem, *Assignment) {
	n := 2 + rng.Intn(8)
	m := 2 + rng.Intn(6)
	g := graph.New(n)
	for i := 0; i < 2*n; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64()+0.01)
	}
	p := &Problem{
		ResourceNames: []string{"cpu"},
		Affinity:      g,
	}
	for s := 0; s < n; s++ {
		p.Services = append(p.Services, Service{
			Name: "s", Replicas: 1 + rng.Intn(5), Request: Resources{1},
		})
	}
	for j := 0; j < m; j++ {
		p.Machines = append(p.Machines, Machine{Name: "m", Capacity: Resources{1000}})
	}
	a := NewAssignment(n, m)
	for s := 0; s < n; s++ {
		for i := 0; i < p.Services[s].Replicas; i++ {
			a.Add(s, rng.Intn(m), 1)
		}
	}
	return p, a
}

// Property: 0 <= gained affinity <= total affinity for any assignment.
func TestPropertyGainedBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, a := randomProblem(rng)
		got := a.GainedAffinity(p)
		return got >= -1e-9 && got <= p.Affinity.TotalWeight()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: placing every container of every service on one machine
// achieves the full total affinity.
func TestPropertyAllOnOneMachine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := randomProblem(rng)
		a := NewAssignment(p.N(), p.M())
		for s := range p.Services {
			a.Set(s, 0, p.Services[s].Replicas)
		}
		return almostEq(a.GainedAffinity(p), p.Affinity.TotalWeight())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: overall gained affinity equals the sum over edges of
// pair-gained fraction times edge weight.
func TestPropertyPairDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, a := randomProblem(rng)
		var sum float64
		for _, e := range p.Affinity.Edges() {
			sum += e.Weight * a.PairGainedAffinity(p, e.U, e.V)
		}
		return math.Abs(sum-a.GainedAffinity(p)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGainedAffinity(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	n, m := 200, 50
	g := graph.New(n)
	for i := 0; i < 3*n; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64())
	}
	p := &Problem{ResourceNames: []string{"cpu"}, Affinity: g}
	for s := 0; s < n; s++ {
		p.Services = append(p.Services, Service{Replicas: 4, Request: Resources{1}})
	}
	for j := 0; j < m; j++ {
		p.Machines = append(p.Machines, Machine{Capacity: Resources{1000}})
	}
	a := NewAssignment(n, m)
	for s := 0; s < n; s++ {
		for i := 0; i < 4; i++ {
			a.Add(s, rng.Intn(m), 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.GainedAffinity(p)
	}
}
