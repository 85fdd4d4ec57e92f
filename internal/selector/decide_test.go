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

// TestDecideTakesArgmax checks a loaded classifier decides by the
// argmax of its class probabilities: the source names the classifier,
// the algorithm is CG or MIP, and the confidence is the winning-class
// probability.
func TestDecideTakesArgmax(t *testing.T) {
	sp := smallSubproblem()
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		kind string
		p    Policy
	}{
		{"gcn", GCNPolicy{Model: gnn.NewGCN(2, 16, 2, rng)}},
		{"mlp", MLPPolicy{Model: gnn.NewMLP(2, 16, 2, rng)}},
	} {
		d := tc.p.Decide(sp)
		if d.Source != tc.kind || (d.Algorithm != pool.CG && d.Algorithm != pool.MIP) {
			t.Fatalf("%s decision %+v, want a direct %s choice of CG or MIP", tc.kind, d, tc.kind)
		}
		if d.Confidence < 0.5 || d.Confidence > 1 {
			t.Fatalf("%s confidence %v outside [0.5, 1]", tc.kind, d.Confidence)
		}
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
