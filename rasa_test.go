package rasa_test

import (
	"context"
	"math"
	"testing"
	"time"

	rasa "github.com/cloudsched/rasa"
)

// buildPair constructs the canonical two-service example via the public
// builder.
func buildPair(t *testing.T, capacity float64) *rasa.Problem {
	t.Helper()
	b := rasa.NewClusterBuilder("cpu")
	a := b.AddService("A", 2, rasa.Resources{1})
	bb := b.AddService("B", 2, rasa.Resources{1})
	for i := 0; i < 3; i++ {
		b.AddMachine("m", rasa.Resources{capacity})
	}
	b.SetAffinity(a, bb, 1.0)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderBasics(t *testing.T) {
	p := buildPair(t, 4)
	if p.N() != 2 || p.M() != 3 {
		t.Fatalf("shape %d/%d", p.N(), p.M())
	}
	if p.Affinity.TotalWeight() != 1.0 {
		t.Fatalf("affinity weight = %v", p.Affinity.TotalWeight())
	}
}

func TestBuilderValidationErrors(t *testing.T) {
	if _, err := rasa.NewClusterBuilder().Build(); err == nil {
		t.Fatal("no resources accepted")
	}
	b := rasa.NewClusterBuilder("cpu")
	b.AddService("x", 0, rasa.Resources{1})
	if _, err := b.Build(); err == nil {
		t.Fatal("zero replicas accepted")
	}
	b = rasa.NewClusterBuilder("cpu")
	b.AddService("x", 1, rasa.Resources{1, 2})
	if _, err := b.Build(); err == nil {
		t.Fatal("bad request dimension accepted")
	}
	b = rasa.NewClusterBuilder("cpu")
	b.AddService("x", 1, rasa.Resources{1})
	b.AddMachine("m", rasa.Resources{4})
	b.SetAffinity(0, 5, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("dangling affinity accepted")
	}
	b = rasa.NewClusterBuilder("cpu")
	b.AddService("x", 1, rasa.Resources{1})
	b.AddMachine("m", rasa.Resources{4})
	b.RestrictService(0, 7)
	if _, err := b.Build(); err == nil {
		t.Fatal("dangling restriction accepted")
	}
}

func TestPublicEndToEnd(t *testing.T) {
	p := buildPair(t, 4)
	current, err := rasa.Schedule(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rasa.OptimizeContext(context.Background(), p, current, rasa.Options{Budget: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.GainedAffinity-1.0) > 1e-6 {
		t.Fatalf("gained = %v, want 1.0", res.GainedAffinity)
	}
	// The plan must transition the real cluster state to the optimum.
	final, err := rasa.SimulateMigration(p, current, res.Plan, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if got := final.GainedAffinity(p); math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("after migration gained = %v", got)
	}
}

func TestPriorityScalesAffinity(t *testing.T) {
	b := rasa.NewClusterBuilder("cpu")
	a := b.AddService("A", 1, rasa.Resources{1})
	bb := b.AddService("B", 1, rasa.Resources{1})
	cc := b.AddService("C", 1, rasa.Resources{1})
	b.AddMachine("m", rasa.Resources{8})
	b.SetAffinity(a, bb, 1.0)
	b.SetAffinity(bb, cc, 1.0)
	b.SetServicePriority(a, rasa.PriorityCritical)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if w := p.Affinity.Weight(a, bb); w != 4.0 {
		t.Fatalf("prioritized edge = %v, want 4.0", w)
	}
	if w := p.Affinity.Weight(bb, cc); w != 1.0 {
		t.Fatalf("normal edge = %v, want 1.0", w)
	}
}

func TestPriorityContention(t *testing.T) {
	// One machine fits exactly one pair. Without priorities the optimizer
	// prefers the heavier pair (C,D); marking A critical flips the choice.
	build := func(critical bool) *rasa.Problem {
		b := rasa.NewClusterBuilder("cpu")
		a := b.AddService("A", 1, rasa.Resources{1})
		bb := b.AddService("B", 1, rasa.Resources{1})
		c := b.AddService("C", 1, rasa.Resources{1})
		d := b.AddService("D", 1, rasa.Resources{1})
		b.AddMachine("big", rasa.Resources{2})
		b.AddMachine("s1", rasa.Resources{1})
		b.AddMachine("s2", rasa.Resources{1})
		b.SetAffinity(a, bb, 1.0)
		b.SetAffinity(c, d, 1.5)
		if critical {
			b.SetServicePriority(a, rasa.PriorityCritical)
		}
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	run := func(p *rasa.Problem) *rasa.Assignment {
		cur, err := rasa.Schedule(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rasa.OptimizeContext(context.Background(), p, cur, rasa.Options{Budget: time.Second, SkipMigration: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Assignment
	}
	base := run(build(false))
	if got := base.PairGainedAffinity(build(false), 2, 3); got != 1.0 {
		t.Fatalf("without priority, (C,D) localized = %v, want 1.0", got)
	}
	prio := run(build(true))
	if got := prio.PairGainedAffinity(build(true), 0, 1); got != 1.0 {
		t.Fatalf("with critical priority, (A,B) localized = %v, want 1.0", got)
	}
}

func TestPublicPolicies(t *testing.T) {
	for _, pol := range []rasa.Policy{rasa.HeuristicPolicy(), rasa.AlwaysCG(), rasa.AlwaysMIP()} {
		if pol.Name() == "" {
			t.Fatal("unnamed policy")
		}
	}
}

// TestTrainPolicySmallLabelSet checks both classifier kinds fit
// whatever training split the labelling yields. A split smaller than 24
// examples must still give a version-1 model that decides every
// tractable subproblem itself, not an empty policy that falls back to
// the heuristic.
func TestTrainPolicySmallLabelSet(t *testing.T) {
	ctx := context.Background()
	var clusters []*rasa.GeneratedCluster
	for seed := int64(1); seed <= 2; seed++ {
		c, err := rasa.Generate(rasa.Preset{
			Name: "small", Services: 60, Containers: 300, Machines: 12,
			Beta: 1.6, AffinityFraction: 0.6, Zones: 1, Utilization: 0.55, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		clusters = append(clusters, c)
	}
	for _, kind := range []string{"gcn", "mlp"} {
		tp, err := rasa.TrainPolicyContext(ctx, rasa.TrainingConfig{
			Clusters: clusters, Kind: kind, LabelBudget: 50 * time.Millisecond, Rounds: 1, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if tp.Examples == 0 || tp.Examples >= 24 {
			t.Fatalf("%s: %d labelled examples, want a set smaller than 24", kind, tp.Examples)
		}
		if tp.Version != 1 {
			t.Fatalf("%s: version %d, want 1", kind, tp.Version)
		}
		res, err := rasa.OptimizeContext(ctx, clusters[0].Problem, clusters[0].Original, rasa.Options{
			Budget: 300 * time.Millisecond, Policy: tp, SkipMigration: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var predicted int
		for i, d := range res.Decisions {
			if d.Source == "heuristic-fallback" {
				t.Fatalf("%s: subproblem %d decided by the heuristic fallback", kind, i)
			}
			if d.Source == kind {
				predicted++
			}
		}
		if predicted == 0 {
			t.Fatalf("%s: no decision came from the model: %+v", kind, res.Decisions)
		}
	}
}

func TestPublicWorkload(t *testing.T) {
	if len(rasa.EvaluationPresets()) != 4 || len(rasa.TrainingPresets()) != 4 {
		t.Fatal("preset counts")
	}
	c, err := rasa.Generate(rasa.Preset{
		Name: "pub", Services: 30, Containers: 150, Machines: 8,
		Beta: 1.6, AffinityFraction: 0.6, Zones: 1, Utilization: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs := c.Original.Check(c.Problem, true); len(vs) != 0 {
		t.Fatalf("violations: %v", vs[0])
	}
}

func TestPublicSimulation(t *testing.T) {
	rep, err := rasa.SimulateContext(context.Background(), rasa.Simulation{
		Workload: rasa.Preset{
			Name: "sim", Services: 30, Containers: 150, Machines: 8,
			Beta: 1.6, AffinityFraction: 0.6, Zones: 1, Utilization: 0.5, Seed: 4,
		},
		Ticks:         3,
		ChurnServices: 1,
		Budget:        200 * time.Millisecond,
		Seed:          4,
	}, rasa.WithoutRASA)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ticks) != 3 {
		t.Fatalf("ticks = %d", len(rep.Ticks))
	}
}

func TestRestrictionsRespected(t *testing.T) {
	b := rasa.NewClusterBuilder("cpu")
	a := b.AddService("A", 2, rasa.Resources{1})
	bb := b.AddService("B", 2, rasa.Resources{1})
	m0 := b.AddMachine("m0", rasa.Resources{8})
	m1 := b.AddMachine("m1", rasa.Resources{8})
	b.SetAffinity(a, bb, 1.0)
	b.RestrictService(a, m0)
	b.RestrictService(bb, m1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	current, err := rasa.Schedule(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rasa.OptimizeContext(context.Background(), p, current, rasa.Options{Budget: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.GainedAffinity != 0 {
		t.Fatalf("gained = %v despite disjoint restrictions", res.GainedAffinity)
	}
	if vs := res.Assignment.Check(p, true); len(vs) != 0 {
		t.Fatalf("violations: %v", vs[0])
	}
}
