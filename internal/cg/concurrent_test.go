package cg_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/cloudsched/rasa/internal/cg"
	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/model"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/solve"
	"github.com/cloudsched/rasa/internal/workload"
)

// multiGroupSubproblems partitions a generated T1-sized cluster and
// returns its subproblems of two or more machine groups.
func multiGroupSubproblems(t *testing.T) []*cluster.Subproblem {
	t.Helper()
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
	var out []*cluster.Subproblem
	for _, sp := range pres.Subproblems {
		if len(model.GroupMachines(sp)) >= 2 {
			out = append(out, sp)
		}
	}
	if len(out) == 0 {
		t.Fatal("no subproblem with two or more machine groups")
	}
	return out
}

// solveWithSpare runs cg.Solve the way a batch goroutine does: holding
// one slot of spare+1, so spare slots are left for pricing helpers.
func solveWithSpare(t *testing.T, sp *cluster.Subproblem, opts cg.Options, spare int) (cg.Result, int) {
	t.Helper()
	slots := solve.NewSlots(spare + 1)
	slots.Acquire()
	defer slots.Release()
	res, err := cg.Solve(solve.WithSlots(context.Background(), slots), sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, slots.Peak()
}

// TestConcurrentPricingDeterministic: pricing a round's machine groups on
// spare slots returns what pricing them one at a time does: the same
// placements, objective, columns, rounds and solver work. Each
// subproblem is solved with its machines grouped and, for many more
// groups per round, with every machine a group of its own.
func TestConcurrentPricingDeterministic(t *testing.T) {
	helped, rounds, solves := false, 0, 0
	for i, sp := range multiGroupSubproblems(t) {
		for _, opts := range []cg.Options{{}, {DisableGrouping: true}} {
			solves++
			seq, seqPeak := solveWithSpare(t, sp, opts, 0)
			if seqPeak != 1 {
				t.Fatalf("subproblem %d: %d solver goroutines with no spare slot", i, seqPeak)
			}
			con, conPeak := solveWithSpare(t, sp, opts, 4)
			helped = helped || conPeak > 1
			if !reflect.DeepEqual(seq.Placements, con.Placements) || seq.Objective != con.Objective {
				t.Fatalf("subproblem %d %+v: placements or objective differ (%v vs %v)", i, opts, seq.Objective, con.Objective)
			}
			a, b := seq.Stats, con.Stats
			rounds += a.PricingRounds
			if a.Columns != b.Columns || a.PricingRounds != b.PricingRounds || a.SimplexIters != b.SimplexIters ||
				a.Nodes != b.Nodes || a.BasisPivots != b.BasisPivots || a.Stop != b.Stop {
				t.Fatalf("subproblem %d %+v: work differs: %d columns/%d rounds/%d pivots/%d nodes vs %d/%d/%d/%d",
					i, opts, a.Columns, a.PricingRounds, a.SimplexIters, a.Nodes, b.Columns, b.PricingRounds, b.SimplexIters, b.Nodes)
			}
		}
	}
	t.Logf("%d solves, %d pricing rounds", solves, rounds)
	if !helped {
		t.Fatal("no round priced a group on a spare slot")
	}
}
