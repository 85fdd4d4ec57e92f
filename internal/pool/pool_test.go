package pool_test

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/graph"
	"github.com/cloudsched/rasa/internal/partition"
	. "github.com/cloudsched/rasa/internal/pool"
	"github.com/cloudsched/rasa/internal/workload"
)

func pairSubproblem(capacity float64) *cluster.Subproblem {
	g := graph.New(2)
	g.AddEdge(0, 1, 1.0)
	p := &cluster.Problem{
		ResourceNames: []string{"cpu"},
		Services: []cluster.Service{
			{Name: "A", Replicas: 2, Request: cluster.Resources{1}},
			{Name: "B", Replicas: 2, Request: cluster.Resources{1}},
		},
		Machines: []cluster.Machine{
			{Name: "m0", Capacity: cluster.Resources{capacity}},
			{Name: "m1", Capacity: cluster.Resources{capacity}},
		},
		Affinity: g,
	}
	return cluster.FullSubproblem(p)
}

func TestBothAlgorithmsSolveOptimally(t *testing.T) {
	for _, alg := range []Algorithm{CG, MIP} {
		res, err := Solve(context.Background(), pairSubproblem(4), alg, time.Now().Add(5*time.Second))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.OutOfTime {
			t.Fatalf("%v: unexpected OOT", alg)
		}
		if math.Abs(res.Objective-1.0) > 1e-6 {
			t.Fatalf("%v: objective = %v, want 1.0", alg, res.Objective)
		}
		if res.Algorithm != alg {
			t.Fatalf("result algorithm = %v, want %v", res.Algorithm, alg)
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := Solve(context.Background(), pairSubproblem(4), Algorithm(99), time.Time{}); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestAlgorithmString(t *testing.T) {
	if CG.String() != "CG" || MIP.String() != "MIP" || Algorithm(9).String() != "unknown" {
		t.Fatal("Algorithm.String broken")
	}
}

func TestMIPOversizedGoesOOT(t *testing.T) {
	// A NO-PARTITION-sized subproblem must be reported OutOfTime rather
	// than attempting a hopeless formulation (Fig. 6's OOT entries),
	// without a single pivot. "tall" is quarter-scale M1: its rows ×
	// variables (about 10M) are small, but its two tableau copies are
	// about 61M float64s, so the bound must count the tableau.
	for _, ps := range []workload.Preset{
		{Name: "big", Services: 400, Containers: 2500, Machines: 120,
			Beta: 1.5, AffinityFraction: 0.7, Zones: 1, Utilization: 0.55, Seed: 11},
		{Name: "tall", Services: 147, Containers: 641, Machines: 24,
			Beta: 1.6, AffinityFraction: 0.55, Zones: 2, Utilization: 0.55, Seed: 101},
	} {
		c, err := workload.Generate(ps)
		if err != nil {
			t.Fatal(err)
		}
		sp := cluster.FullSubproblem(c.Problem)
		res, err := SolveMIP(context.Background(), sp, time.Now().Add(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if !res.OutOfTime || res.Stats.SimplexIters != 0 {
			t.Fatalf("%s: OutOfTime=%v after %d pivots, want OOT without solving", ps.Name, res.OutOfTime, res.Stats.SimplexIters)
		}
	}
}

func TestSolveAllParallelAndOrdered(t *testing.T) {
	c, err := workload.Generate(workload.Preset{
		Name: "p", Services: 60, Containers: 300, Machines: 16,
		Beta: 1.6, AffinityFraction: 0.6, Zones: 1, Utilization: 0.55, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := partition.Multistage(context.Background(), c.Problem, c.Original, partition.Options{TargetSize: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.Subproblems) < 2 {
		t.Fatalf("want multiple subproblems, got %d", len(pres.Subproblems))
	}
	results := SolveAll(context.Background(), pres.Subproblems, func(i int) Algorithm {
		if i%2 == 0 {
			return CG
		}
		return MIP
	}, 3*time.Second, 4)
	if len(results) != len(pres.Subproblems) {
		t.Fatalf("results = %d, want %d", len(results), len(pres.Subproblems))
	}
	for i, r := range results {
		want := CG
		if i%2 == 1 {
			want = MIP
		}
		if r.Algorithm != want {
			t.Fatalf("result %d algorithm = %v, want %v", i, r.Algorithm, want)
		}
	}
}

func TestSolveAllExpiredBudgetStillReturns(t *testing.T) {
	sp := pairSubproblem(4)
	results := SolveAll(context.Background(), []*cluster.Subproblem{sp, sp}, func(int) Algorithm { return CG }, -time.Second, 2)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
}

// TestSolveAllMIPFloor checks a MIP pick that cannot produce a single
// integral incumbent inside the shared budget still returns placements:
// the solve layer fills the hole with CG's greedy floor (bounded
// overtime) instead of leaving the subproblem on its original
// assignment. A cancelled parent context must NOT trigger the floor.
func TestSolveAllMIPFloor(t *testing.T) {
	c, err := workload.Generate(workload.Preset{
		Name: "floor", Services: 60, Containers: 300, Machines: 16,
		Beta: 1.6, AffinityFraction: 0.6, Zones: 1, Utilization: 0.55, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := partition.Multistage(context.Background(), c.Problem, c.Original, partition.Options{TargetSize: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	subs := pres.Subproblems

	// A nanosecond budget expires before any MIP can round an
	// incumbent.
	results := SolveAll(context.Background(), subs, func(int) Algorithm { return MIP }, time.Nanosecond, 2)
	for i, r := range results {
		if r.Algorithm != MIP || !r.OutOfTime {
			t.Fatalf("result %d: %v OutOfTime=%v, want starved MIP", i, r.Algorithm, r.OutOfTime)
		}
		if len(r.Placements) == 0 {
			t.Fatalf("result %d has no placements: the anytime floor is gone", i)
		}
	}

	// With the parent context already cancelled there is no overtime to
	// spend: results come back empty rather than stretching the
	// cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results = SolveAll(ctx, subs, func(int) Algorithm { return MIP }, time.Nanosecond, 2)
	for i, r := range results {
		if len(r.Placements) != 0 {
			t.Fatalf("result %d solved after parent cancellation", i)
		}
	}
}
