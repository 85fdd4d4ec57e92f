package mip

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// countdownCtx is a context that reports Canceled from its left-th Err
// call on, so an interruption lands at one exact poll of a solve: a
// node pop, or the entry check of a node LP, which then returns
// IterLimit without a point.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	c.left--
	if c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestUnsolvedNodeKeepsBound interrupts random solves at every poll in
// turn. Wherever the interruption stops a node's LP, the node's subtree
// was never searched, so the reported bound must still cover the true
// optimum, and the status may be Optimal only when the incumbent is
// within the gap of it.
func TestUnsolvedNodeKeepsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	caught := 0
	for trial := 0; trial < 40; trial++ {
		p := randomIP(rng, 6, 4)
		full, err := Solve(context.Background(), p, Options{})
		if err != nil || full.Status != Optimal {
			t.Fatalf("trial %d: full solve %v %v", trial, full.Status, err)
		}
		probe := &countdownCtx{Context: context.Background(), left: math.MaxInt}
		if _, err := Solve(probe, p, Options{}); err != nil {
			t.Fatal(err)
		}
		polls := math.MaxInt - probe.left
		for k := 1; k < polls; k++ {
			s, err := Solve(&countdownCtx{Context: context.Background(), left: k}, p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if s.Status != Optimal && s.Status != Feasible {
				continue
			}
			slack := 1e-6 * math.Max(1, math.Abs(full.Objective))
			if s.Bound < full.Objective-slack {
				t.Fatalf("trial %d, interrupted at poll %d of %d: %v with bound %.9g below the optimum %.9g",
					trial, k, polls, s.Status, s.Bound, full.Objective)
			}
			if s.Status == Optimal && s.Objective < full.Objective-slack {
				t.Fatalf("trial %d, interrupted at poll %d: optimal at %.9g, optimum %.9g", trial, k, s.Objective, full.Objective)
			}
			if s.Status == Feasible && s.Bound > s.Objective+slack {
				caught++
			}
		}
	}
	if caught == 0 {
		t.Fatal("no interruption left an open gap; the generator does not reach the case")
	}
}
