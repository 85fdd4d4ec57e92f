package selector_test

import (
	"context"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/graph"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/pool"
	. "github.com/cloudsched/rasa/internal/selector"
	"github.com/cloudsched/rasa/internal/workload"
)

func smallSubproblem() *cluster.Subproblem {
	g := graph.New(3)
	g.AddEdge(0, 1, 0.6)
	g.AddEdge(1, 2, 0.4)
	p := &cluster.Problem{
		ResourceNames: []string{"cpu"},
		Services: []cluster.Service{
			{Name: "a", Replicas: 2, Request: cluster.Resources{1}},
			{Name: "b", Replicas: 2, Request: cluster.Resources{1}},
			{Name: "c", Replicas: 2, Request: cluster.Resources{1}},
		},
		Machines: []cluster.Machine{
			{Name: "m0", Capacity: cluster.Resources{4}},
			{Name: "m1", Capacity: cluster.Resources{4}},
			{Name: "m2", Capacity: cluster.Resources{8}},
		},
		Affinity: g,
	}
	return cluster.FullSubproblem(p)
}

func TestFixedPolicies(t *testing.T) {
	sp := smallSubproblem()
	if got := (Fixed{Algorithm: pool.CG}).Decide(sp).Algorithm; got != pool.CG {
		t.Fatalf("Fixed CG selected %v", got)
	}
	if got := (Fixed{Algorithm: pool.MIP}).Decide(sp).Algorithm; got != pool.MIP {
		t.Fatalf("Fixed MIP selected %v", got)
	}
	if (Fixed{Algorithm: pool.CG}).Name() != "CG" {
		t.Fatal("Fixed name")
	}
}

func TestHeuristicRule(t *testing.T) {
	sp := smallSubproblem()
	// avg containers per service = 2; machine groups: {m0,m1} and {m2}
	// -> avg machines per type = 1.5 < 2 -> CG.
	if got := (Heuristic{}).Decide(sp).Algorithm; got != pool.CG {
		t.Fatalf("heuristic selected %v, want CG", got)
	}
	// Fewer containers per service than machines per type -> MIP.
	sp2 := smallSubproblem()
	for i := range sp2.P.Services {
		sp2.P.Services[i].Replicas = 1
	}
	if got := (Heuristic{}).Decide(sp2).Algorithm; got != pool.MIP {
		t.Fatalf("heuristic selected %v, want MIP", got)
	}
}

func TestLabelRacesAlgorithms(t *testing.T) {
	sp := smallSubproblem()
	l, err := Label(context.Background(), sp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if l.CGObj < 0 || l.MIPObj < 0 {
		t.Fatalf("negative objectives: %+v", l)
	}
	// Both algorithms solve this toy problem optimally; ties go to CG.
	if l.Winner != pool.CG && l.MIPObj <= l.CGObj {
		t.Fatalf("winner = %v with CG %v MIP %v", l.Winner, l.CGObj, l.MIPObj)
	}
}

// TestTrainedSelectorsEndToEnd labels subproblems from a training
// cluster, trains both models, and checks the GCN achieves reasonable
// training accuracy and that policies return valid algorithms.
func TestTrainedSelectorsEndToEnd(t *testing.T) {
	c, err := workload.Generate(workload.Preset{
		Name: "train", Services: 80, Containers: 420, Machines: 20,
		Beta: 1.6, AffinityFraction: 0.6, Zones: 1, Utilization: 0.55, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	var labeled []Labeled
	for seed := int64(0); seed < 6; seed++ {
		pres, err := partition.Multistage(context.Background(), c.Problem, c.Original, partition.Options{
			TargetSize: 6 + int(seed), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range pres.Subproblems {
			l, err := Label(context.Background(), sp, 150*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			labeled = append(labeled, l)
		}
	}
	if len(labeled) < 10 {
		t.Fatalf("only %d labelled subproblems", len(labeled))
	}
	gcn := TrainGCN(labeled, 1)
	mlp := TrainMLP(labeled, 1)
	// Labels carry irreducible noise: identical feature graphs can get
	// different labels depending on the machine pool and solver timing,
	// so training accuracy well below 1.0 is expected; it must still
	// clearly beat coin flipping.
	if acc := gcn.Accuracy(ToSamples(labeled)); acc < 0.55 {
		t.Fatalf("GCN training accuracy = %v", acc)
	}
	gp := GCNPolicy{Model: gcn}
	mp := MLPPolicy{Model: mlp}
	for _, l := range labeled[:5] {
		a := gp.Decide(l.Sub).Algorithm
		if a != pool.CG && a != pool.MIP {
			t.Fatalf("GCN policy returned %v", a)
		}
		a = mp.Decide(l.Sub).Algorithm
		if a != pool.CG && a != pool.MIP {
			t.Fatalf("MLP policy returned %v", a)
		}
	}
	if gp.Name() != "GCN-BASED" || mp.Name() != "MLP-BASED" || (Heuristic{}).Name() != "HEURISTIC" {
		t.Fatal("policy names")
	}
}
