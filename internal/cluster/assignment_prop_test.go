package cluster

import (
	"math/rand"
	"testing"

	"github.com/cloudsched/rasa/internal/graph"
)

// randomAssignment scatters the given per-service totals over m machines.
func randomAssignment(rng *rand.Rand, totals []int, m int) *Assignment {
	a := NewAssignment(len(totals), m)
	for s, t := range totals {
		for c := 0; c < t; c++ {
			a.Add(s, rng.Intn(m), 1)
		}
	}
	return a
}

func assignmentsEqual(a, b *Assignment) bool {
	if a.N != b.N || a.M != b.M {
		return false
	}
	for s := 0; s < a.N; s++ {
		for m := 0; m < a.M; m++ {
			if a.Get(s, m) != b.Get(s, m) {
				return false
			}
		}
	}
	return true
}

// TestMoveCountZeroIffEqual: over assignments with identical per-service
// totals (MoveCount's domain — a transition never creates or destroys
// containers), the move count is zero exactly when the assignments are
// identical.
func TestMoveCountZeroIffEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n, m := 1+rng.Intn(6), 1+rng.Intn(5)
		totals := make([]int, n)
		for s := range totals {
			totals[s] = rng.Intn(7)
		}
		a := randomAssignment(rng, totals, m)
		b := randomAssignment(rng, totals, m)
		eq := assignmentsEqual(a, b)
		if mc := MoveCount(a, b); (mc == 0) != eq {
			t.Fatalf("trial %d: MoveCount=%d but equal=%v", trial, mc, eq)
		}
		// Reflexivity: an assignment is zero moves from itself and from
		// its clone.
		if MoveCount(a, a) != 0 || MoveCount(a, a.Clone()) != 0 {
			t.Fatalf("trial %d: nonzero self move count", trial)
		}
		// A single relocation is exactly one move in each direction.
		if m >= 2 {
			for s := 0; s < n; s++ {
				if ms := a.MachinesOf(s); len(ms) > 0 {
					from := ms[0]
					to := (from + 1) % m
					c := a.Clone()
					c.Add(s, from, -1)
					c.Add(s, to, 1)
					if MoveCount(a, c) != 1 || MoveCount(c, a) != 1 {
						t.Fatalf("trial %d: single relocation counted as %d/%d moves",
							trial, MoveCount(a, c), MoveCount(c, a))
					}
					break
				}
			}
		}
	}
}

// TestCloneIndependence: mutating a clone through Add and Set never
// shows through to the original, and vice versa.
func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n, m := 1+rng.Intn(5), 1+rng.Intn(5)
		totals := make([]int, n)
		for s := range totals {
			totals[s] = rng.Intn(6)
		}
		a := randomAssignment(rng, totals, m)
		c := a.Clone()
		if !assignmentsEqual(a, c) {
			t.Fatalf("trial %d: clone differs before mutation", trial)
		}
		before := a.Clone() // frozen reference copy
		for k := 0; k < 10; k++ {
			s, mm := rng.Intn(n), rng.Intn(m)
			if rng.Intn(2) == 0 {
				c.Add(s, mm, 1)
			} else {
				c.Set(s, mm, rng.Intn(4))
			}
		}
		if !assignmentsEqual(a, before) {
			t.Fatalf("trial %d: mutating clone leaked into original", trial)
		}
		// And the other direction.
		cBefore := c.Clone()
		a.Add(rng.Intn(n), rng.Intn(m), 1)
		if !assignmentsEqual(c, cBefore) {
			t.Fatalf("trial %d: mutating original leaked into clone", trial)
		}
	}
}

// TestCheckCatchesAntiAffinityAdd: starting from a valid placement, one
// Add that pushes a service past its per-host concentration cap is
// flagged by Check.
func TestCheckCatchesAntiAffinityAdd(t *testing.T) {
	p := &Problem{
		ResourceNames: []string{"cpu"},
		Services: []Service{
			{Name: "a", Replicas: 4, Request: Resources{1}},
			{Name: "b", Replicas: 2, Request: Resources{1}},
		},
		Machines: []Machine{
			{Name: "m0", Capacity: Resources{100}},
			{Name: "m1", Capacity: Resources{100}},
		},
		AntiAffinity: []AntiAffinityRule{{Services: []int{0}, MaxPerHost: 2}},
	}
	p.Affinity = graph.New(2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	a := NewAssignment(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	if viol := a.Check(p, true); len(viol) > 0 {
		t.Fatalf("valid placement flagged: %v", viol[0])
	}
	a.Add(0, 0, 1) // m0 now hosts 3 > MaxPerHost 2
	viol := a.Check(p, false)
	if len(viol) == 0 {
		t.Fatal("anti-affinity breach from a single Add went unflagged")
	}
}

// TestEachPlacementOrder: EachPlacement visits exactly the non-zero
// cells, in (service, machine) order, with their counts, and after the
// first services grow its buffer it allocates nothing per service.
func TestEachPlacementOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n, m := 1+rng.Intn(12), 1+rng.Intn(30)
		totals := make([]int, n)
		for s := range totals {
			totals[s] = rng.Intn(40)
		}
		a := randomAssignment(rng, totals, m)
		var want, got [][3]int
		for s := 0; s < n; s++ {
			for mi := 0; mi < m; mi++ {
				if c := a.Get(s, mi); c > 0 {
					want = append(want, [3]int{s, mi, c})
				}
			}
		}
		a.EachPlacement(func(s, mi, c int) { got = append(got, [3]int{s, mi, c}) })
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d visits, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: visit %d is %v, want %v", trial, k, got[k], want[k])
			}
		}
	}
	allocs := func(n int) float64 {
		totals := make([]int, n)
		for s := range totals {
			totals[s] = 30
		}
		a := randomAssignment(rng, totals, 40)
		return testing.AllocsPerRun(20, func() { a.EachPlacement(func(int, int, int) {}) })
	}
	if few, many := allocs(8), allocs(64); many > few {
		t.Fatalf("EachPlacement allocated %.0f times over 8 services, %.0f over 64", few, many)
	}
}
