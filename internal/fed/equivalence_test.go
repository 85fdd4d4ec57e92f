package fed

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/exec"
	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/workload"
)

// equivalencePreset is a deliberately small three-zone cluster: the
// solvers are anytime (deadline-bounded branch and bound), so exact
// arm-for-arm equality requires every subproblem to reach proven
// optimality well inside the budget — which only small blocks
// guarantee.
func equivalencePreset() workload.Preset {
	return workload.Preset{
		Name: "EQ", Services: 36, Containers: 240, Machines: 12,
		Beta: 1.7, AffinityFraction: 0.6, Zones: 3, CommunitySize: 6,
		Utilization: 0.5, Seed: 77,
	}
}

// equivalenceOpts pins every source of solver nondeterminism so the
// single-engine and federated arms perform bit-identical work:
// Parallelism 1 (ordered subproblem solves), MasterRatio 1 (no sampled
// master sets), TargetSize >= any block (stage 4 never consumes its
// rng, which the arms would otherwise consume in different orders),
// ForceFull (no per-arm escalation divergence) and a generous budget so
// no solve or migration plan is cut off mid-search.
func equivalenceOpts(n int) incr.Options {
	return incr.Options{
		Budget:      60 * time.Second,
		ForceFull:   true,
		Parallelism: 1,
		Partition:   partition.Options{MasterRatio: 1, TargetSize: n + 1, Seed: 11},
	}
}

// executeSingle runs one single-engine pass as the pool runs each block:
// Propose, then RunProposal on an instant fabric.
func executeSingle(ctx context.Context, eng *incr.Engine) (*incr.Result, *exec.Report, error) {
	from := eng.State().Assignment().Clone()
	res, err := eng.Propose(ctx)
	if err != nil {
		return nil, nil, err
	}
	rep, err := exec.New(eng, exec.NewInstantFabric(from), exec.Options{}, nil).RunProposal(ctx, from, res)
	return res, rep, err
}

// TestBlockIsolationEquivalence is the federation's correctness
// property: re-optimizing each compatibility block in isolation and
// merging the results yields the same assignment and the same gained
// affinity as running one engine over the whole cluster on the same
// event stream. This is the paper's stage-3 independence argument made
// executable. Both arms plan migrations and execute them on instant
// fabrics, the one way a session moves.
func TestBlockIsolationEquivalence(t *testing.T) {
	preset := equivalencePreset()
	c, err := workload.Generate(preset)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	n := c.Problem.N()
	opts := equivalenceOpts(n)

	// Arm A: one engine over the global cluster.
	cSingle, err := workload.Generate(preset)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	st, err := incr.NewState(cSingle.Problem, cSingle.Original)
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	single := incr.New(st, opts, nil)

	// Arm B: the federated pool over an identical copy.
	pl, err := New(c.Problem, c.Original, Options{Shards: 3, Engine: opts}, nil)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	if pl.Blocks() < 2 {
		t.Fatalf("preset produced %d blocks; equivalence needs >= 2", pl.Blocks())
	}

	ctx := context.Background()
	compare := func(stage string) {
		t.Helper()
		sa := st.Assignment()
		fa := pl.Assignment()
		for s := 0; s < st.Problem().N(); s++ {
			for m := 0; m < st.Problem().M(); m++ {
				if sa.Get(s, m) != fa.Get(s, m) {
					t.Fatalf("%s: assignment differs at (%d,%d): single=%d fed=%d",
						stage, s, m, sa.Get(s, m), fa.Get(s, m))
				}
			}
		}
		sst := st.Snapshot()
		fst := pl.Stats()
		if math.Abs(sst.GainedAffinity-fst.GainedAffinity) > 1e-6 {
			t.Fatalf("%s: gained affinity single=%v fed=%v", stage, sst.GainedAffinity, fst.GainedAffinity)
		}
		if math.Abs(sst.TotalAffinity-fst.TotalAffinity) > 1e-6 {
			t.Fatalf("%s: total affinity single=%v fed=%v", stage, sst.TotalAffinity, fst.TotalAffinity)
		}
		if math.Abs(sst.NormalizedGain-fst.NormalizedGain) > 1e-9 {
			t.Fatalf("%s: normalized gain single=%v fed=%v", stage, sst.NormalizedGain, fst.NormalizedGain)
		}
	}

	reoptBoth := func(stage string) {
		t.Helper()
		sres, srep, err := executeSingle(ctx, single)
		if err != nil {
			t.Fatalf("%s: single execute: %v", stage, err)
		}
		fres, err := reoptimize(ctx, pl)
		if err != nil {
			t.Fatalf("%s: fed execute: %v", stage, err)
		}
		if srep.Outcome != exec.OutcomeCompleted || fres.Report.Outcome != exec.OutcomeCompleted {
			t.Fatalf("%s: outcomes single=%s fed=%s", stage, srep.Outcome, fres.Report.Outcome)
		}
		if sres.Moves != fres.Moves || srep.Executed != fres.Report.Executed {
			t.Fatalf("%s: moves single=%d fed=%d, executed single=%d fed=%d",
				stage, sres.Moves, fres.Moves, srep.Executed, fres.Report.Executed)
		}
		compare(stage)
	}

	reoptBoth("bootstrap")

	// A churn batch touching both blocks: scales, an intra-block and a
	// cross-block affinity change, one drain. Identical global-index
	// events feed both arms.
	p := st.Problem()
	var batch []lifetime.Event
	for s := 0; s < p.N() && len(batch) < 6; s += p.N() / 6 {
		batch = append(batch, lifetime.ScaleService{Service: s, Replicas: p.Services[s].Replicas + 1})
	}
	// First affinity edge: reweight (intra-block by construction — the
	// generator only wires edges within a zone).
	if edges := p.Affinity.Edges(); len(edges) > 0 {
		e := edges[0]
		batch = append(batch, lifetime.UpdateAffinity{A: e.U, B: e.V, Weight: e.Weight * 2})
	}
	// A cross-block pair: one service per zone (the pool books it in the
	// ledger; the single engine adds an edge that can never be gained).
	var za, zb = -1, -1
	for s := 0; s < p.N(); s++ {
		switch pl.svcOwner[s] {
		case 0:
			if za < 0 {
				za = s
			}
		case 1:
			if zb < 0 {
				zb = s
			}
		}
	}
	if za >= 0 && zb >= 0 {
		batch = append(batch, lifetime.UpdateAffinity{A: za, B: zb, Weight: 4})
	}
	batch = append(batch, lifetime.DrainMachine{Machine: 1})

	for i, ev := range batch {
		if _, err := st.Apply(ev); err != nil {
			t.Fatalf("single apply %d (%T): %v", i, ev, err)
		}
	}
	if nApplied, err := pl.Apply(batch...); err != nil || nApplied != len(batch) {
		t.Fatalf("fed apply: n=%d err=%v", nApplied, err)
	}
	reoptBoth("after churn")

	// Second wave on the already-optimized state.
	var wave2 []lifetime.Event
	for s := 2; s < p.N() && len(wave2) < 4; s += p.N() / 4 {
		r := st.Problem().Services[s].Replicas
		if r > 1 {
			wave2 = append(wave2, lifetime.ScaleService{Service: s, Replicas: r - 1})
		}
	}
	wave2 = append(wave2, lifetime.ReplanRequested{Reason: "test"})
	for i, ev := range wave2 {
		if _, err := st.Apply(ev); err != nil {
			t.Fatalf("single apply wave2 %d: %v", i, ev)
		}
	}
	if _, err := pl.Apply(wave2...); err != nil {
		t.Fatalf("fed apply wave2: %v", err)
	}
	reoptBoth("after wave 2")
}

// TestEquivalenceWithMigration checks the bootstrap pass's plans: the
// single engine and the pool move the same containers, their plans
// relocate as many, and the executed placements coincide.
func TestEquivalenceWithMigration(t *testing.T) {
	preset := equivalencePreset()
	cs, err := workload.Generate(preset)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cf, err := workload.Generate(preset)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	opts := equivalenceOpts(cs.Problem.N())

	st, err := incr.NewState(cs.Problem, cs.Original)
	if err != nil {
		t.Fatalf("state: %v", err)
	}
	single := incr.New(st, opts, nil)
	pl, err := New(cf.Problem, cf.Original, Options{Shards: 3, Engine: opts}, nil)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}

	ctx := context.Background()
	sres, _, err := executeSingle(ctx, single)
	if err != nil {
		t.Fatalf("single: %v", err)
	}
	fres, err := reoptimize(ctx, pl)
	if err != nil {
		t.Fatalf("fed: %v", err)
	}
	if sres.Moves != fres.Moves {
		t.Fatalf("moves single=%d fed=%d", sres.Moves, fres.Moves)
	}
	sa, fa := st.Assignment(), pl.Assignment()
	for s := 0; s < st.Problem().N(); s++ {
		for m := 0; m < st.Problem().M(); m++ {
			if sa.Get(s, m) != fa.Get(s, m) {
				t.Fatalf("assignment differs at (%d,%d): single=%d fed=%d", s, m, sa.Get(s, m), fa.Get(s, m))
			}
		}
	}
	// The merged plan relocates the same containers the single plan does.
	if (sres.Plan == nil) != (fres.Plan == nil) {
		t.Fatalf("plan presence differs: single=%v fed=%v", sres.Plan != nil, fres.Plan != nil)
	}
	if sres.Plan != nil && sres.Plan.Moves != fres.Plan.Moves {
		t.Fatalf("plan moves single=%d fed=%d", sres.Plan.Moves, fres.Plan.Moves)
	}
}
