package selector_test

import (
	"math/rand"
	"testing"

	"github.com/cloudsched/rasa/internal/gnn"
	"github.com/cloudsched/rasa/internal/pool"
	. "github.com/cloudsched/rasa/internal/selector"
)

// TestDecideNilModelFallsBack checks the classifier policies degrade to
// the heuristic rule — with zero confidence — when no model is loaded,
// instead of panicking or guessing.
func TestDecideNilModelFallsBack(t *testing.T) {
	sp := smallSubproblem()
	want := Heuristic{}.Decide(sp).Algorithm
	for _, p := range []Policy{GCNPolicy{}, MLPPolicy{}} {
		d := p.Decide(sp)
		if d.Algorithm != want || d.Source != "heuristic-fallback" || d.Confidence != 0 {
			t.Fatalf("%s nil-model decision %+v, want alg %v source heuristic-fallback conf 0", p.Name(), d, want)
		}
	}
}

// TestDecideLowConfidenceRaces checks the confidence gate: an untrained
// model's ~50/50 softmax falls below any real threshold and the policy
// asks for a race; with the gate disabled it trusts the argmax.
func TestDecideLowConfidenceRaces(t *testing.T) {
	sp := smallSubproblem()
	rng := rand.New(rand.NewSource(1))
	gcn, mlp := gnn.NewGCN(2, 16, 2, rng), gnn.NewMLP(2, 16, 2, rng)
	for _, tc := range []struct {
		kind         string
		gated, plain Policy
	}{
		{"gcn", GCNPolicy{Model: gcn, MinConfidence: 0.9}, GCNPolicy{Model: gcn}},
		{"mlp", MLPPolicy{Model: mlp, MinConfidence: 0.9}, MLPPolicy{Model: mlp}},
	} {
		d := tc.gated.Decide(sp)
		if d.Algorithm != pool.Race || d.Source != tc.kind+"-lowconf" {
			t.Fatalf("%s low-confidence decision %+v, want Race/%s-lowconf", tc.kind, d, tc.kind)
		}
		if d.Confidence <= 0 || d.Confidence >= 0.9 {
			t.Fatalf("%s confidence %v outside (0, 0.9)", tc.kind, d.Confidence)
		}

		d = tc.plain.Decide(sp)
		if d.Algorithm == pool.Race || d.Source != tc.kind {
			t.Fatalf("%s ungated decision %+v, want a direct %s choice", tc.kind, d, tc.kind)
		}
		if d.Algorithm != pool.CG && d.Algorithm != pool.MIP {
			t.Fatalf("%s ungated decision picked %v", tc.kind, d.Algorithm)
		}
	}
}

// TestRacePolicyDecision checks the explicit race policy dispatches
// pool.Race with zero confidence.
func TestRacePolicyDecision(t *testing.T) {
	sp := smallSubproblem()
	d := Race{}.Decide(sp)
	if d.Algorithm != pool.Race || d.Confidence != 0 || d.Source != "race" {
		t.Fatalf("race decision %+v", d)
	}
}

// TestToSamplesTieWeight checks the tie bugfix: tied races stay in the
// training set but carry TieWeight instead of a full vote, and the race
// labeller records tie and margin.
func TestToSamplesTieWeight(t *testing.T) {
	sp := smallSubproblem()
	labeled := []Labeled{
		{Sub: sp, Winner: pool.CG, Tie: true, Margin: 0.001},
		{Sub: sp, Winner: pool.MIP},
	}
	samples := ToSamples(labeled)
	if len(samples) != 2 {
		t.Fatalf("ToSamples dropped ties: %d samples", len(samples))
	}
	if samples[0].Weight != TieWeight {
		t.Fatalf("tie weight %v, want %v", samples[0].Weight, TieWeight)
	}
	if samples[1].Weight != 0 {
		t.Fatalf("decisive weight %v, want 0 (= full weight)", samples[1].Weight)
	}
}
