package incr

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/core"
	"github.com/cloudsched/rasa/internal/obs"
	"github.com/cloudsched/rasa/internal/workload"
)

func testOptions() Options {
	return Options{
		Budget:        3 * time.Second,
		SkipMigration: true,
		Parallelism:   2,
	}
}

func TestBootstrapNoopDelta(t *testing.T) {
	st := newTestState(t, t3())
	eng := New(st, testOptions(), nil)
	ctx := context.Background()

	// First call has no partition to scope against: full pipeline.
	res, err := eng.Reoptimize(ctx)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if res.Mode != ModeFull || res.EscalationReason != ReasonBootstrap {
		t.Fatalf("bootstrap mode=%v reason=%q", res.Mode, res.EscalationReason)
	}
	if viol := st.Assignment().Check(st.Problem(), true); len(viol) > 0 {
		t.Fatalf("bootstrap assignment invalid: %v", viol[0])
	}
	if len(st.groups) == 0 {
		t.Fatal("no partition installed after full solve")
	}

	// Nothing dirty: noop.
	res, err = eng.Reoptimize(ctx)
	if err != nil {
		t.Fatalf("noop: %v", err)
	}
	if res.Mode != ModeNoop || res.Moves != 0 {
		t.Fatalf("noop mode=%v moves=%d", res.Mode, res.Moves)
	}

	// One scaled service: delta over exactly one dirty subproblem.
	var target int
	for s, g := range st.subOf {
		if g >= 0 {
			target = s
			break
		}
	}
	d := st.Problem().Services[target].Replicas
	if _, err := eng.Apply(ScaleService{Service: target, Replicas: d + 2}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	res, err = eng.Reoptimize(ctx)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if res.Mode != ModeDelta {
		t.Fatalf("mode=%v reason=%q, want delta", res.Mode, res.EscalationReason)
	}
	if res.DirtySubproblems != 1 {
		t.Fatalf("dirty=%d, want 1", res.DirtySubproblems)
	}
	if viol := st.Assignment().Check(st.Problem(), true); len(viol) > 0 {
		t.Fatalf("delta assignment invalid: %v", viol[0])
	}
	if got := st.Assignment().Placed(target); got != d+2 {
		t.Fatalf("scaled service placed=%d, want %d", got, d+2)
	}
	if len(st.dirty) != 0 || st.dirtyTrivial {
		t.Fatal("dirty set not cleared after adopted delta")
	}
}

// TestDeltaQualityVsFull is the headline correctness property: after a
// churn event that dirties one subproblem, the pass stays on the delta
// path, the combined delta assignment passes Check, it moves strictly
// fewer containers than a fresh full re-solve of the same state, and its
// normalized gained affinity stays within the drift threshold of the
// full re-solve's.
func TestDeltaQualityVsFull(t *testing.T) {
	st := newTestState(t, t3())
	opts := testOptions()
	eng := New(st, opts, nil)
	ctx := context.Background()
	if _, err := eng.Reoptimize(ctx); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}

	// One scale event: it dirties a single subproblem, so the pass must
	// not escalate on the dirty ratio.
	rng := rand.New(rand.NewSource(7))
	p := st.Problem()
	s := rng.Intn(p.N())
	for st.subOf[s] < 0 {
		s = rng.Intn(p.N())
	}
	if _, err := eng.Apply(ScaleService{Service: s, Replicas: p.Services[s].Replicas + 1 + rng.Intn(2)}); err != nil {
		t.Fatalf("apply: %v", err)
	}

	// Full re-solve on a snapshot of the same post-event state for
	// comparison (clone first: the engine owns the live objects).
	entry := st.Assignment().Clone()
	cmpRes, err := core.Optimize(ctx, p, entry.Clone(), core.Options{
		Budget: opts.Budget, SkipMigration: true, Parallelism: opts.Parallelism,
	})
	if err != nil {
		t.Fatalf("reference full solve: %v", err)
	}

	res, err := eng.Reoptimize(ctx)
	if err != nil {
		t.Fatalf("reoptimize: %v", err)
	}
	if res.Mode != ModeDelta {
		t.Fatalf("mode=%v reason=%q dirty=%d/%d, want delta",
			res.Mode, res.EscalationReason, res.DirtySubproblems, res.TotalSubproblems)
	}
	if viol := st.Assignment().Check(p, true); len(viol) > 0 {
		t.Fatalf("combined assignment invalid: %v", viol[0])
	}
	full := cluster.MoveCount(entry, cmpRes.Assignment)
	t.Logf("delta pass: dirty %d/%d, %d moves; full re-solve: %d moves",
		res.DirtySubproblems, res.TotalSubproblems, res.Moves, full)
	if res.Moves >= full {
		t.Fatalf("delta pass moved %d containers, full re-solve %d: delta must move strictly fewer", res.Moves, full)
	}
	total := p.Affinity.TotalWeight()
	fullNorm := cmpRes.GainedAffinity / total
	if res.NormalizedGain < fullNorm-eng.opts.DriftThreshold {
		t.Fatalf("delta gain %.4f more than %.2f below full re-solve %.4f",
			res.NormalizedGain, eng.opts.DriftThreshold, fullNorm)
	}
}

func TestDriftEscalation(t *testing.T) {
	st := newTestState(t, t3())
	reg := obs.NewRegistry()
	eng := New(st, testOptions(), reg)
	ctx := context.Background()
	if _, err := eng.Reoptimize(ctx); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if len(st.groups) < 2 {
		t.Skipf("need >=2 subproblems, got %d", len(st.groups))
	}

	// A new affinity edge between two different subproblems, heavier
	// than the whole existing graph: no scoped solve can collocate the
	// pair, so normalized gain collapses and the engine must escalate.
	u, v := st.groups[0][0], st.groups[1][0]
	w := 2 * st.Problem().Affinity.TotalWeight()
	if _, err := eng.Apply(UpdateAffinity{A: u, B: v, Weight: w}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	res, err := eng.Reoptimize(ctx)
	if err != nil {
		t.Fatalf("reoptimize: %v", err)
	}
	if res.Mode != ModeFull || res.EscalationReason != ReasonDrift {
		t.Fatalf("mode=%v reason=%q, want full/drift", res.Mode, res.EscalationReason)
	}
	if !res.Escalated {
		t.Fatal("Escalated not set")
	}
	if got := reg.CounterVec("rasa_incr_escalations_total",
		"Full-pipeline runs, by the reason a delta pass was not enough.", "reason").
		With(ReasonDrift).Value(); got != 1 {
		t.Fatalf("escalation counter = %v, want 1", got)
	}
	if viol := st.Assignment().Check(st.Problem(), true); len(viol) > 0 {
		t.Fatalf("escalated assignment invalid: %v", viol[0])
	}
}

func TestDirtyRatioEscalation(t *testing.T) {
	st := newTestState(t, t3())
	eng := New(st, testOptions(), nil)
	ctx := context.Background()
	if _, err := eng.Reoptimize(ctx); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}

	// Dirty every subproblem: scale one service from each group.
	p := st.Problem()
	var events []Event
	for _, g := range st.groups {
		s := g[0]
		events = append(events, ScaleService{Service: s, Replicas: p.Services[s].Replicas + 1})
	}
	if _, err := eng.Apply(events...); err != nil {
		t.Fatalf("apply: %v", err)
	}
	res, err := eng.Reoptimize(ctx)
	if err != nil {
		t.Fatalf("reoptimize: %v", err)
	}
	if res.Mode != ModeFull || res.EscalationReason != ReasonDirtyRatio {
		t.Fatalf("mode=%v reason=%q, want full/dirty-ratio", res.Mode, res.EscalationReason)
	}
}

func TestForceFull(t *testing.T) {
	st := newTestState(t, t3())
	opts := testOptions()
	opts.ForceFull = true
	eng := New(st, opts, nil)
	res, err := eng.Reoptimize(context.Background())
	if err != nil {
		t.Fatalf("reoptimize: %v", err)
	}
	if res.Mode != ModeFull || res.EscalationReason != ReasonForced {
		t.Fatalf("mode=%v reason=%q, want full/force-full", res.Mode, res.EscalationReason)
	}
}

// TestDeltaMigrationPlan exercises the migration-path branch of a delta
// pass: the plan must transition exactly from the pre-event assignment
// to the adopted one, and only moved containers appear in Changed.
func TestDeltaMigrationPlan(t *testing.T) {
	st := newTestState(t, t3())
	opts := testOptions()
	opts.SkipMigration = false
	eng := New(st, opts, nil)
	ctx := context.Background()
	if _, err := eng.Reoptimize(ctx); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}

	var target int
	for s, g := range st.subOf {
		if g >= 0 {
			target = s
			break
		}
	}
	old := st.Assignment().Clone()
	if _, err := eng.Apply(ScaleService{Service: target, Replicas: st.Problem().Services[target].Replicas + 2}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	res, err := eng.Reoptimize(ctx)
	if err != nil {
		t.Fatalf("reoptimize: %v", err)
	}
	if res.Mode != ModeDelta {
		t.Skipf("delta not taken (mode=%v reason=%q)", res.Mode, res.EscalationReason)
	}
	if res.Plan == nil {
		t.Fatal("no migration plan on delta pass")
	}
	// Changed lists exactly the cells that differ from the pre-event
	// assignment's event-adjusted form; verify against a direct diff of
	// old vs adopted, ignoring cells the event itself stripped (none
	// here: pure scale-up).
	adopted := st.Assignment()
	for _, d := range res.Changed {
		if old.Get(d.Service, d.Machine) == adopted.Get(d.Service, d.Machine) {
			t.Fatalf("Changed reports unchanged cell %+v", d)
		}
	}
	if viol := adopted.Check(st.Problem(), true); len(viol) > 0 {
		t.Fatalf("adopted assignment invalid: %v", viol[0])
	}
}

func TestRemoveServiceThenReoptimize(t *testing.T) {
	st := newTestState(t, t3())
	eng := New(st, testOptions(), nil)
	ctx := context.Background()
	if _, err := eng.Reoptimize(ctx); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	// Remove a partitioned (non-trivial) service so group bookkeeping
	// must remap, then re-optimize and validate end state.
	victim := -1
	for s, g := range st.subOf {
		if g >= 0 {
			victim = s
			break
		}
	}
	if victim < 0 {
		t.Skip("no partitioned service")
	}
	if _, err := eng.Apply(RemoveService{Service: victim}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if len(st.subOf) != st.Problem().N() {
		t.Fatalf("subOf len %d, want %d", len(st.subOf), st.Problem().N())
	}
	res, err := eng.Reoptimize(ctx)
	if err != nil {
		t.Fatalf("reoptimize: %v", err)
	}
	if res.Mode == ModeNoop {
		t.Fatal("remove of partitioned service did not dirty anything")
	}
	if viol := st.Assignment().Check(st.Problem(), true); len(viol) > 0 {
		t.Fatalf("assignment invalid after remove+reoptimize: %v", viol[0])
	}
}

func TestStateValidation(t *testing.T) {
	c, err := workload.Generate(t3())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewState(c.Problem, nil); err == nil {
		t.Fatal("nil assignment accepted")
	}
	if _, err := NewState(c.Problem, cluster.NewAssignment(1, 1)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}
