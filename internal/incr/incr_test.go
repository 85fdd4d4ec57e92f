package incr

import (
	"math"
	"testing"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/workload"
)

// newTestState generates a T-scale cluster and wraps it in a State.
func newTestState(t *testing.T, preset workload.Preset) *State {
	t.Helper()
	c, err := workload.Generate(preset)
	if err != nil {
		t.Fatalf("generate %s: %v", preset.Name, err)
	}
	st, err := NewState(c.Problem, c.Original)
	if err != nil {
		t.Fatalf("new state: %v", err)
	}
	return st
}

func t3() workload.Preset { return workload.TrainingPresets()[2] }

func TestScaleServiceEvent(t *testing.T) {
	st := newTestState(t, t3())
	p := st.Problem()
	s := 0
	orig := p.Services[s].Replicas

	// Scale up: replicas target moves, placed count unchanged (deficit
	// awaits Propose).
	placed := st.Assignment().Placed(s)
	if _, err := st.Apply(lifetime.ScaleService{Service: s, Replicas: orig + 3}); err != nil {
		t.Fatalf("scale up: %v", err)
	}
	if p.Services[s].Replicas != orig+3 {
		t.Fatalf("replicas = %d, want %d", p.Services[s].Replicas, orig+3)
	}
	if got := st.Assignment().Placed(s); got != placed {
		t.Fatalf("scale up moved containers: placed %d, want %d", got, placed)
	}

	// Scale down strips surplus immediately.
	if _, err := st.Apply(lifetime.ScaleService{Service: s, Replicas: 1}); err != nil {
		t.Fatalf("scale down: %v", err)
	}
	if got := st.Assignment().Placed(s); got != 1 {
		t.Fatalf("placed after scale down = %d, want 1", got)
	}

	// Invalid events are rejected.
	if _, err := st.Apply(lifetime.ScaleService{Service: s, Replicas: 0}); err == nil {
		t.Fatal("zero replicas accepted")
	}
	if _, err := st.Apply(lifetime.ScaleService{Service: p.N(), Replicas: 1}); err == nil {
		t.Fatal("out-of-range service accepted")
	}
}

func TestDrainMachineEvent(t *testing.T) {
	st := newTestState(t, t3())
	p := st.Problem()
	// Pick a machine that hosts something.
	target := -1
	for m := 0; m < p.M() && target < 0; m++ {
		for s := 0; s < p.N(); s++ {
			if st.Assignment().Get(s, m) > 0 {
				target = m
				break
			}
		}
	}
	if target < 0 {
		t.Fatal("no hosting machine in generated cluster")
	}
	if _, err := st.Apply(lifetime.DrainMachine{Machine: target}); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for s := 0; s < p.N(); s++ {
		if st.Assignment().Get(s, target) != 0 {
			t.Fatalf("service %d still on drained machine", s)
		}
	}
	for r, v := range p.Machines[target].Capacity {
		if v != 0 {
			t.Fatalf("resource %d capacity %v after drain, want 0", r, v)
		}
	}
	// The default scheduler must not re-place anything there.
	st.Settle()
	for s := 0; s < p.N(); s++ {
		if st.Assignment().Get(s, target) != 0 {
			t.Fatalf("Settle re-placed service %d on drained machine", s)
		}
	}
}

func TestUpdateAffinityEvent(t *testing.T) {
	st := newTestState(t, t3())
	p := st.Problem()
	if _, err := st.Apply(lifetime.UpdateAffinity{A: 0, B: 1, Weight: 7.5}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if w := p.Affinity.Weight(0, 1); w != 7.5 {
		t.Fatalf("weight = %v, want 7.5", w)
	}
	// Absolute semantics: setting again replaces, not accumulates.
	if _, err := st.Apply(lifetime.UpdateAffinity{A: 0, B: 1, Weight: 2}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if w := p.Affinity.Weight(0, 1); w != 2 {
		t.Fatalf("weight = %v, want 2", w)
	}
	if _, err := st.Apply(lifetime.UpdateAffinity{A: 0, B: 0, Weight: 1}); err == nil {
		t.Fatal("self-affinity accepted")
	}
	if _, err := st.Apply(lifetime.UpdateAffinity{A: 0, B: 1, Weight: math.NaN()}); err == nil {
		t.Fatal("NaN weight accepted")
	}
}

func TestAddMachineEvent(t *testing.T) {
	st := newTestState(t, t3())
	p := st.Problem()
	m0 := p.M()
	capRes := make(cluster.Resources, len(p.ResourceNames))
	for r := range capRes {
		capRes[r] = 64
	}
	if _, err := st.Apply(lifetime.AddMachine{Name: "new-0", Capacity: capRes, Spec: 1}); err != nil {
		t.Fatalf("add machine: %v", err)
	}
	if p.M() != m0+1 {
		t.Fatalf("M = %d, want %d", p.M(), m0+1)
	}
	if st.Assignment().M != m0+1 {
		t.Fatalf("assignment M = %d, want %d", st.Assignment().M, m0+1)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("problem invalid after add: %v", err)
	}
	if _, err := st.Apply(lifetime.AddMachine{Capacity: cluster.Resources{1}}); err == nil {
		t.Fatal("wrong resource arity accepted")
	}
}

func TestRemoveServiceEvent(t *testing.T) {
	st := newTestState(t, t3())
	p := st.Problem()
	n0 := p.N()
	victim := 3
	// Record facts about a service above the victim to verify remapping.
	probe := victim + 2
	probeName := p.Services[probe].Name
	probePlaced := st.Assignment().Placed(probe)

	if _, err := st.Apply(lifetime.RemoveService{Service: victim}); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if p.N() != n0-1 {
		t.Fatalf("N = %d, want %d", p.N(), n0-1)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("problem invalid after remove: %v", err)
	}
	shifted := probe - 1
	if p.Services[shifted].Name != probeName {
		t.Fatalf("service %d name %q, want %q", shifted, p.Services[shifted].Name, probeName)
	}
	if got := st.Assignment().Placed(shifted); got != probePlaced {
		t.Fatalf("shifted service placed = %d, want %d", got, probePlaced)
	}
	if viol := st.Assignment().Check(p, false); len(viol) > 0 {
		t.Fatalf("assignment violates constraints after remove: %v", viol[0])
	}
}
