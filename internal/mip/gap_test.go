package mip

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
)

// TestGapKeepsBound solves random IPs under a wide relative gap. A node
// fathomed because it cannot beat the incumbent by more than the gap
// slack, at pop or right after its LP, still has an unsearched
// subtree, so the reported bound must cover the true optimum, and
// Optimal must mean the incumbent is within the gap of it.
func TestGapKeepsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	looser := 0
	for trial := 0; trial < 200; trial++ {
		p := randomIP(rng, 8, 5)
		exact, err := Solve(context.Background(), p, Options{})
		if err != nil || exact.Status != Optimal {
			t.Fatalf("trial %d: exact solve %v %v", trial, exact.Status, err)
		}
		const gap = 0.2
		s, err := Solve(context.Background(), p, Options{Gap: gap})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tol := 1e-7 * math.Max(1, math.Abs(exact.Objective))
		if s.Bound < exact.Objective-tol {
			t.Fatalf("trial %d: %v bound %.9g below the optimum %.9g (objective %.9g)",
				trial, s.Status, s.Bound, exact.Objective, s.Objective)
		}
		if s.Status == Optimal && s.Objective < exact.Objective-gap*math.Max(1, math.Abs(s.Objective))-tol {
			t.Fatalf("trial %d: optimal at %.9g, more than the gap below the optimum %.9g", trial, s.Objective, exact.Objective)
		}
		if s.Objective < exact.Objective-tol {
			looser++
		}
	}
	// The gap must have stopped some searches short, or the property
	// was never put to the test.
	if looser == 0 {
		t.Fatal("no trial stopped short of the optimum under the gap")
	}
	t.Logf("%d of 200 trials stopped short of the optimum", looser)
}

// TestGapKeepsBoundOnFixture solves the 33x373 rounding master (see
// testdata/README.md) at the relative gap column generation uses. It
// stops at an incumbent below the exact optimum 0.00311225151, and its
// bound must still cover that optimum.
func TestGapKeepsBoundOnFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/round_33x373.json")
	if err != nil {
		t.Fatal(err)
	}
	var p Problem
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	const optimum = 0.00311225151 // the Gap-0 solve's objective
	s, err := Solve(context.Background(), &p, Options{MaxNodes: 4096, Gap: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v after %d nodes: objective %.11g, bound %.11g", s.Status, s.Nodes, s.Objective, s.Bound)
	if s.Bound < optimum-1e-11 {
		t.Fatalf("bound %.11g below the optimum %.11g", s.Bound, optimum)
	}
}
