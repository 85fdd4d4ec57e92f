package pool_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/partition"
	. "github.com/cloudsched/rasa/internal/pool"
	"github.com/cloudsched/rasa/internal/solve"
	"github.com/cloudsched/rasa/internal/workload"
)

// TestParallelismCapsSolverGoroutines: every solver goroutine of a batch,
// subproblem or CG pricing helper, runs on a slot, so Parallelism 1
// never runs two at once, and spare slots change what runs side by
// side but not what the batch returns.
func TestParallelismCapsSolverGoroutines(t *testing.T) {
	c, err := workload.Generate(workload.Preset{
		Name: "T1", Services: 120, Containers: 700, Machines: 30,
		Beta: 1.7, AffinityFraction: 0.6, Zones: 1, Utilization: 0.5, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := partition.Multistage(context.Background(), c.Problem, c.Original, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	subs := pres.Subproblems
	cgAll := func(int) Algorithm { return CG }
	batch := func(n int) ([]Result, int) {
		slots := solve.NewSlots(n)
		res := SolveAllOnSlots(context.Background(), subs, cgAll, time.Now().Add(time.Minute), slots)
		return res, slots.Peak()
	}
	one, peak := batch(1)
	if peak != 1 {
		t.Fatalf("Parallelism 1 ran %d solver goroutines at once", peak)
	}
	four, peak := batch(4)
	if peak > 4 {
		t.Fatalf("Parallelism 4 ran %d solver goroutines at once", peak)
	}
	t.Logf("%d subproblems; at most %d solver goroutines at Parallelism 4", len(subs), peak)
	for i := range one {
		a, b := one[i], four[i]
		if !reflect.DeepEqual(a.Placements, b.Placements) || a.Objective != b.Objective ||
			a.Stats.SimplexIters != b.Stats.SimplexIters || a.Stats.Nodes != b.Stats.Nodes || a.Stats.Columns != b.Stats.Columns {
			t.Fatalf("subproblem %d differs between Parallelism 1 and 4", i)
		}
	}
}
