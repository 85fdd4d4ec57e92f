package cg

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/mip"
)

// TestRoundingDeadlineCapped watches the options the integer master is
// solved under. With a deadline an hour away, rounding's deadline is
// the rounding start plus the reserve, 3/10 of the budget left when the
// loop began: never later (the reserve is a cap), never earlier than
// the reserve allows (it is still rounding's floor). Without a deadline
// rounding has none. Either way its gap is at most roundShare of the
// cluster's affinity.
func TestRoundingDeadlineCapped(t *testing.T) {
	var got mip.Options
	var called time.Time
	solveIntegerMaster = func(ctx context.Context, p *mip.Problem, o mip.Options) (mip.Solution, error) {
		got, called = o, time.Now()
		return mip.Solve(ctx, p, o)
	}
	defer func() { solveIntegerMaster = mip.Solve }()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		sp := randomSubproblem(rng)
		start := time.Now()
		deadline := start.Add(time.Hour)
		if _, err := Solve(context.Background(), sp, Options{Deadline: deadline}); err != nil {
			t.Fatal(err)
		}
		// The loop began at or after start and rounding before called,
		// so the reserve is at most 3/10 of deadline-start and at least
		// 3/10 of deadline-called.
		latest := called.Add(deadline.Sub(start) * 3 / 10)
		earliest := start.Add(deadline.Sub(called) * 3 / 10)
		if got.Deadline.After(latest) || got.Deadline.Before(earliest) {
			t.Fatalf("trial %d: rounding deadline %v past its start, want within the reserve (%v to %v)",
				trial, got.Deadline.Sub(start), earliest.Sub(start), latest.Sub(start))
		}
		if w := sp.P.Affinity.TotalWeight(); got.Gap <= 0 || got.Gap > roundShare*w {
			t.Fatalf("trial %d: rounding gap %g, want (0, %g]", trial, got.Gap, roundShare*w)
		}
		if _, err := Solve(context.Background(), sp, Options{}); err != nil {
			t.Fatal(err)
		}
		if !got.Deadline.IsZero() {
			t.Fatalf("trial %d: rounding got a deadline without one", trial)
		}
	}
}
