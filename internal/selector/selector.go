// Package selector implements the algorithm-selection phase of the RASA
// algorithm (Section IV-D): given a subproblem, choose between the MIP
// and column-generation members of the scheduling algorithm pool. It
// provides the GCN-based classifier the paper proposes plus every
// baseline of the Section V-C ablation (always-CG, always-MIP, the
// empirical heuristic, and the topology-blind MLP), and the labelling
// harness that generates training data by racing both algorithms.
//
// Policies are confidence-aware: Decide returns a Decision carrying the
// chosen algorithm, the policy's confidence in it, and a source tag. A
// policy that is unsure may return pool.Race — the solve layer then runs
// both algorithms and the head-to-head outcome flows back to the policy
// through the Observer interface, closing the online learning loop.
package selector

import (
	"context"
	"math/rand"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/gnn"
	"github.com/cloudsched/rasa/internal/model"
	"github.com/cloudsched/rasa/internal/pool"
)

// Decision is a confidence-aware algorithm choice for one subproblem.
type Decision struct {
	// Algorithm to run; pool.Race means "unsure — run both and learn
	// from the outcome".
	Algorithm pool.Algorithm
	// Confidence in [0, 1]: a classifier reports its winning-class
	// probability, deterministic rules report 1, an explicit race 0.
	Confidence float64
	// Source tags where the choice came from ("gcn", "gcn-lowconf",
	// "mlp", "mlp-lowconf", "heuristic", "fixed", "race",
	// "tractability-guard", "heuristic-fallback") for the decision-mix
	// metrics.
	Source string
}

// Policy selects a pool algorithm for each subproblem.
type Policy interface {
	// Decide returns the confidence-aware algorithm choice for the
	// subproblem.
	Decide(sp *cluster.Subproblem) Decision
	// Name identifies the policy in experiment output.
	Name() string
}

// Observer is implemented by policies that learn online: whenever the
// solve layer races both algorithms on a subproblem — because the
// policy returned pool.Race, or the caller forced a race — the labelled
// outcome is fed back through ObserveRace. Implementations must be
// safe for concurrent use; subproblem solves run in parallel.
type Observer interface {
	ObserveRace(l Labeled)
}

// Fixed always picks the same algorithm (the CG and MIP rows of Fig. 8).
type Fixed struct{ Algorithm pool.Algorithm }

// Decide implements Policy.
func (f Fixed) Decide(*cluster.Subproblem) Decision {
	return Decision{Algorithm: f.Algorithm, Confidence: 1, Source: "fixed"}
}

// Name implements Policy.
func (f Fixed) Name() string { return f.Algorithm.String() }

// Race always races both pool algorithms (the labelling configuration,
// and the always-race arm of the selector benchmark). It burns up to 2x
// the CPU of a single arm but is its own oracle.
type Race struct{}

// Decide implements Policy.
func (Race) Decide(*cluster.Subproblem) Decision {
	return Decision{Algorithm: pool.Race, Confidence: 0, Source: "race"}
}

// Name implements Policy.
func (Race) Name() string { return "RACE" }

// Heuristic is the empirical rule of Section V-C: compare the average
// container count per service with the average machine count per machine
// type; prefer CG when containers dominate (large-scale packing), MIP
// otherwise.
type Heuristic struct{}

// Decide implements Policy. The rule is deterministic, so it reports
// full confidence.
func (Heuristic) Decide(sp *cluster.Subproblem) Decision {
	return Decision{Algorithm: heuristicRule(sp), Confidence: 1, Source: "heuristic"}
}

// Name implements Policy.
func (Heuristic) Name() string { return "HEURISTIC" }

// heuristicRule is the Section V-C rule behind Heuristic and the
// classifiers' nil-model fallback.
func heuristicRule(sp *cluster.Subproblem) pool.Algorithm {
	if len(sp.Services) == 0 {
		return pool.MIP
	}
	var containers int
	for _, s := range sp.Services {
		containers += sp.P.Services[s].Replicas
	}
	avgContainers := float64(containers) / float64(len(sp.Services))

	groups := model.GroupMachines(sp)
	if len(groups) == 0 {
		return pool.MIP
	}
	avgMachines := float64(len(sp.Machines)) / float64(len(groups))
	if avgContainers > avgMachines {
		return pool.CG
	}
	return pool.MIP
}

// mipTractableCells bounds the direct-MIP formulation size a learned
// policy may select MIP for. The paper's MIP arm targets "relatively
// small" subproblems; on this substrate (a from-scratch solver rather
// than Gurobi, see DESIGN.md) the viable regime is tighter, and a
// misprediction that sends a large subproblem to MIP costs the whole
// budget. The guard encodes the regime boundary; the classifier picks
// within it.
const mipTractableCells = 1_500_000

// MIPTractable estimates the simplex-tableau size of the subproblem's
// direct MIP formulation without building it and reports whether a
// learned policy may send it to MIP at all. Exported for the online
// trainer, whose learned policies apply the same regime guard.
func MIPTractable(sp *cluster.Subproblem) bool {
	nS, nM := len(sp.Services), len(sp.Machines)
	inSub := make(map[int]bool, nS)
	for _, s := range sp.Services {
		inSub[s] = true
	}
	var edges int64
	for _, e := range sp.P.Affinity.Edges() {
		if inSub[e.U] && inSub[e.V] {
			edges++
		}
	}
	vars := int64(nS)*int64(nM) + edges*int64(nM)
	rows := int64(nS) + int64(nM)*int64(len(sp.P.ResourceNames)) + 2*edges*int64(nM)
	return vars*rows <= mipTractableCells
}

// GCNPolicy selects with the trained graph classifier. Class indices
// follow labelAlgorithms: 0 => CG, 1 => MIP.
type GCNPolicy struct {
	Model *gnn.GCN
	// MinConfidence gates the prediction: when the winning-class
	// probability falls below it, Decide returns pool.Race so the solve
	// layer runs both arms and the outcome becomes a training example.
	// Zero disables the gate (always trust the argmax).
	MinConfidence float64
}

// Decide implements Policy. With a nil model it falls back to the
// empirical heuristic at confidence 0 (the untrained-server bootstrap
// path); predictions outside the MIP-tractable regime are forced to CG.
func (p GCNPolicy) Decide(sp *cluster.Subproblem) Decision {
	var predict func() []float64
	if p.Model != nil {
		predict = func() []float64 { return p.Model.Predict(gnn.FeatureGraph(sp)) }
	}
	return gate(sp, predict, p.MinConfidence, "gcn")
}

// Name implements Policy.
func (GCNPolicy) Name() string { return "GCN-BASED" }

// MLPPolicy selects with the mean-pooled MLP baseline.
type MLPPolicy struct {
	Model *gnn.MLP
	// MinConfidence gates the prediction exactly like GCNPolicy's.
	MinConfidence float64
}

// Decide implements Policy.
func (p MLPPolicy) Decide(sp *cluster.Subproblem) Decision {
	var predict func() []float64
	if p.Model != nil {
		predict = func() []float64 {
			_, x := gnn.FeatureGraph(sp)
			return p.Model.Predict(x)
		}
	}
	return gate(sp, predict, p.MinConfidence, "mlp")
}

// Name implements Policy.
func (MLPPolicy) Name() string { return "MLP-BASED" }

// gate is the decision path both classifiers share. With no model
// (predict nil) it falls back to the heuristic rule at confidence 0;
// outside the MIP-tractable regime it forces CG; otherwise it takes the
// argmax of predict's class probabilities, or asks for a race when that
// probability is below minConf. kind prefixes the source tag.
func gate(sp *cluster.Subproblem, predict func() []float64, minConf float64, kind string) Decision {
	if predict == nil {
		return Decision{Algorithm: heuristicRule(sp), Confidence: 0, Source: "heuristic-fallback"}
	}
	if !MIPTractable(sp) {
		return Decision{Algorithm: pool.CG, Confidence: 1, Source: "tractability-guard"}
	}
	probs := predict()
	best := 0
	for i := range probs {
		if probs[i] > probs[best] {
			best = i
		}
	}
	conf := probs[best]
	if minConf > 0 && conf < minConf {
		return Decision{Algorithm: pool.Race, Confidence: conf, Source: kind + "-lowconf"}
	}
	return Decision{Algorithm: classToAlgorithm(best), Confidence: conf, Source: kind}
}

func classToAlgorithm(c int) pool.Algorithm {
	if c == 1 {
		return pool.MIP
	}
	return pool.CG
}

func algorithmToClass(a pool.Algorithm) int {
	if a == pool.MIP {
		return 1
	}
	return 0
}

// Labeled is a training example: a subproblem plus the algorithm that
// won the objective race under the labelling budget.
type Labeled struct {
	Sub    *cluster.Subproblem
	Winner pool.Algorithm
	CGObj  float64
	MIPObj float64
	// Tie reports that both arms finished within pool.RaceMargin of each
	// other: the Winner label (CG, the cheaper arm) is solver timing
	// noise, not signal, and training skips or down-weights it.
	Tie bool
	// Margin is the relative objective gap (MIP-CG)/max(|CG|, eps) the
	// race observed; see pool.RaceOutcome.
	Margin float64
}

// FromRace converts a race outcome observed in the solve path into a
// labelled training example.
func FromRace(sp *cluster.Subproblem, ro *pool.RaceOutcome) Labeled {
	return Labeled{
		Sub:    sp,
		Winner: ro.Winner,
		CGObj:  ro.CGObjective,
		MIPObj: ro.MIPObjective,
		Tie:    ro.Tie,
		Margin: ro.Margin,
	}
}

// Label races both pool algorithms on the subproblem with the given
// per-algorithm budget and returns the labelled example (Section IV-D:
// "we attempt each subproblem with the two candidate algorithms and
// choose the one that returns better objective within a time limit").
// The race itself is pool.SolveRace: CG on its own goroutine, MIP with
// CG's objective as a branch-and-bound cutoff. Ties go to CG but are
// flagged as such, so near-ties decided by timing noise stop teaching a
// false CG preference.
func Label(ctx context.Context, sp *cluster.Subproblem, budget time.Duration) (Labeled, error) {
	res, err := pool.SolveRace(ctx, sp, time.Now().Add(budget))
	if err != nil {
		return Labeled{}, err
	}
	return FromRace(sp, res.Race), nil
}

// TieWeight is the training weight of a tied race. A tie's winner
// label (CG, the cheaper arm) is mostly solver timing noise, so it
// contributes a fraction of a decisive example's gradient — enough to
// keep the prior that CG suffices when both arms land together, without
// letting noisy labels dominate the decisive ones.
const TieWeight = 0.25

// ToSamples converts labelled subproblems into GCN training samples.
// Tied races are down-weighted by TieWeight rather than dropped.
func ToSamples(labeled []Labeled) []gnn.Sample {
	out := make([]gnn.Sample, 0, len(labeled))
	for _, l := range labeled {
		aHat, x := gnn.FeatureGraph(l.Sub)
		s := gnn.Sample{AHat: aHat, X: x, Label: algorithmToClass(l.Winner)}
		if l.Tie {
			s.Weight = TieWeight
		}
		out = append(out, s)
	}
	return out
}

// TrainGCN fits a fresh GCN classifier on labelled subproblems. The
// learning rate is deliberately small: per-sample Adam steps on graphs
// of widely varying size oscillate at textbook rates, and the labels
// carry irreducible noise (the [r_s, d_s] feature graph of Definition 2
// cannot see the machine pool a subproblem was assigned), so slow
// convergence beats divergence.
func TrainGCN(labeled []Labeled, seed int64) *gnn.GCN {
	rng := rand.New(rand.NewSource(seed))
	m := gnn.NewGCN(2, 16, 2, rng)
	m.Fit(ToSamples(labeled), gnn.TrainConfig{Epochs: 800, LR: 0.002, Seed: seed})
	return m
}

// TrainMLP fits the MLP baseline on the same labelled subproblems.
func TrainMLP(labeled []Labeled, seed int64) *gnn.MLP {
	rng := rand.New(rand.NewSource(seed))
	m := gnn.NewMLP(2, 16, 2, rng)
	m.Fit(ToSamples(labeled), gnn.TrainConfig{Epochs: 800, LR: 0.002, Seed: seed})
	return m
}
