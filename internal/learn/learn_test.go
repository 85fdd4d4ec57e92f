package learn_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cloudsched/rasa/internal/cluster"
	. "github.com/cloudsched/rasa/internal/learn"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/pool"
	"github.com/cloudsched/rasa/internal/selector"
	"github.com/cloudsched/rasa/internal/workload"
)

// benchSubproblems partitions a small synthetic cluster into real
// subproblems so trainer examples carry genuine feature graphs.
func benchSubproblems(t *testing.T, seed int64) []*cluster.Subproblem {
	t.Helper()
	c, err := workload.Generate(workload.Preset{
		Name: "learn", Services: 60, Containers: 320, Machines: 16,
		Beta: 1.6, AffinityFraction: 0.6, Zones: 1, Utilization: 0.55, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var subs []*cluster.Subproblem
	for r := 0; r < 3; r++ {
		pres, err := partition.Multistage(context.Background(), c.Problem, c.Original, partition.Options{
			TargetSize: 6 + 2*r, Seed: seed + int64(r),
		})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, pres.Subproblems...)
	}
	return subs
}

// heuristicLabel fabricates a deterministic, learnable oracle: label
// with the heuristic rule (which depends only on subproblem shape).
func heuristicLabel(sp *cluster.Subproblem) selector.Labeled {
	return selector.Labeled{Sub: sp, Winner: selector.Heuristic{}.Decide(sp).Algorithm}
}

// flippedLabel is the same oracle with every label inverted.
func flippedLabel(sp *cluster.Subproblem) selector.Labeled {
	w := pool.CG
	if (selector.Heuristic{}).Decide(sp).Algorithm == pool.CG {
		w = pool.MIP
	}
	return selector.Labeled{Sub: sp, Winner: w}
}

func TestUntrainedPolicyRaces(t *testing.T) {
	subs := benchSubproblems(t, 7)
	p := &Policy{Trainer: NewTrainer(Options{}), MinConfidence: 0.8}
	d := p.Decide(subs[0])
	if d.Algorithm != pool.Race || d.Source != "race-untrained" {
		t.Fatalf("untrained decision %+v, want Race/race-untrained", d)
	}
	if p.Name() != "LEARNED-GCN" {
		t.Fatalf("policy name %q", p.Name())
	}
}

// TestTrainerRetrainsAndServes feeds a consistent oracle and checks the
// trainer installs a model, the policy starts trusting it, and holdout
// accuracy on the learnable rule is high.
func TestTrainerRetrainsAndServes(t *testing.T) {
	subs := benchSubproblems(t, 11)
	tr := NewTrainer(Options{RetrainEvery: 16, MinExamples: 12, Epochs: 400, Seed: 1})
	for _, sp := range subs {
		tr.Observe(heuristicLabel(sp))
	}
	tr.Retrain()
	m := tr.Model()
	if m == nil {
		t.Fatalf("no model after %d examples", len(subs))
	}
	if m.Version < 1 {
		t.Fatalf("version %d", m.Version)
	}
	st := tr.Stats()
	if st.Observed != int64(len(subs)) || st.Retrains < 1 {
		t.Fatalf("stats %+v", st)
	}
	// The heuristic oracle is a function of the feature graph's shape, so
	// the GCN should fit it well.
	if m.HoldoutAccuracy < 0.6 {
		t.Fatalf("holdout accuracy %v", m.HoldoutAccuracy)
	}
	p := &Policy{Trainer: tr, MinConfidence: 0}
	d := p.Decide(subs[0])
	if d.Source != "gcn" && d.Source != "tractability-guard" {
		t.Fatalf("trained decision source %q", d.Source)
	}
}

// TestRollbackGate trains a good model, then floods the buffer with
// label-flipped examples: the retrained candidate regresses on the
// surviving holdout and must be rejected, leaving the incumbent
// installed.
func TestRollbackGate(t *testing.T) {
	subs := benchSubproblems(t, 13)
	tr := NewTrainer(Options{
		// Large capacity and manual retrains: the test controls cadence.
		Capacity: 4 * len(subs), RetrainEvery: 1 << 30, MinExamples: 12,
		Epochs: 400, Seed: 1,
	})
	for _, sp := range subs {
		tr.Observe(heuristicLabel(sp))
	}
	if !tr.Retrain() {
		t.Fatal("initial retrain did not install")
	}
	v1 := tr.Model().Version

	// Flood the training ring with label-flipped examples while steering
	// the every-5th holdout slots back to the true oracle: the holdout
	// keeps measuring the real rule, the candidate fits the inverse one
	// and must score near zero against it.
	for round := 0; round < 6; round++ {
		for _, sp := range subs {
			if (tr.Stats().Observed+1)%5 == 0 {
				tr.Observe(heuristicLabel(sp))
			} else {
				tr.Observe(flippedLabel(sp))
			}
		}
	}
	if tr.Retrain() {
		t.Fatal("regressed candidate was installed")
	}
	st := tr.Stats()
	if st.Rollbacks < 1 {
		t.Fatalf("no rollback recorded: %+v", st)
	}
	if got := tr.Model().Version; got != v1 {
		t.Fatalf("version moved %d -> %d across a rollback", v1, got)
	}
}

// TestHotSwapUnderConcurrentDecides hammers Decide from many goroutines
// while the trainer retrains and hot-swaps underneath (run under
// -race). Every decision must stay valid mid-swap.
func TestHotSwapUnderConcurrentDecides(t *testing.T) {
	subs := benchSubproblems(t, 17)
	tr := NewTrainer(Options{RetrainEvery: 8, MinExamples: 8, Epochs: 60, Seed: 1})
	p := &Policy{Trainer: tr, MinConfidence: 0.5}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				d := p.Decide(subs[(i+g)%len(subs)])
				switch d.Algorithm {
				case pool.CG, pool.MIP, pool.Race:
				default:
					t.Errorf("invalid algorithm %v", d.Algorithm)
					return
				}
			}
		}(g)
	}
	// Feed examples (triggering synchronous retrains + hot-swaps) and an
	// occasional direct install, concurrently with the deciders.
	for round := 0; round < 3; round++ {
		for _, sp := range subs {
			p.ObserveRace(heuristicLabel(sp))
		}
	}
	stop.Store(true)
	wg.Wait()

	st := tr.Stats()
	if st.Retrains < 2 {
		t.Fatalf("expected repeated hot-swaps, got %+v", st)
	}
	if m := tr.Model(); m == nil || m.Version < 1 {
		t.Fatalf("no model installed after concurrent run")
	}
}

// TestInstallBypassesGate checks operator-supplied models install
// unconditionally and bump the version.
func TestInstallBypassesGate(t *testing.T) {
	subs := benchSubproblems(t, 19)
	tr := NewTrainer(Options{RetrainEvery: 1 << 30, MinExamples: 12, Epochs: 200, Seed: 1})
	for _, sp := range subs {
		tr.Observe(heuristicLabel(sp))
	}
	tr.Retrain()
	v := tr.Model().Version
	m := tr.Install(tr.Model().GCN)
	if m.Version != v+1 {
		t.Fatalf("install version %d, want %d", m.Version, v+1)
	}
}

// TestTieExamplesDownWeighted checks ties enter the buffer down-
// weighted and never the holdout.
func TestTieExamplesDownWeighted(t *testing.T) {
	subs := benchSubproblems(t, 23)
	tr := NewTrainer(Options{RetrainEvery: 1 << 30, MinExamples: 1 << 30})
	for _, sp := range subs {
		l := heuristicLabel(sp)
		l.Tie = true
		tr.Observe(l)
	}
	st := tr.Stats()
	if st.Ties != int64(len(subs)) {
		t.Fatalf("ties %d, want %d", st.Ties, len(subs))
	}
	if st.HoldoutSize != 0 {
		t.Fatalf("ties leaked into holdout: %+v", st)
	}
	if st.Buffered != len(subs) {
		t.Fatalf("ties not buffered: %+v", st)
	}
}
