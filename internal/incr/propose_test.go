package incr

import (
	"context"
	"errors"
	"testing"

	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/obs"
)

// TestProposeCommitAdopt covers the two-phase path the federation layer
// drives: Propose computes without adopting, CommitProposal adopts, and
// a log that advanced in between invalidates the proposal.
func TestProposeCommitAdopt(t *testing.T) {
	st := newTestState(t, t3())
	eng := New(st, testOptions(), nil)
	ctx := context.Background()

	// Propose the bootstrap full pass: the log records the proposal but
	// the live assignment must not change.
	before := st.Assignment().Clone()
	res, err := eng.Propose(ctx)
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	if res.Mode != ModeFull {
		t.Fatalf("bootstrap propose mode = %v", res.Mode)
	}
	if res.Moves == 0 {
		t.Fatal("bootstrap proposal moved nothing")
	}
	p := st.Problem()
	for s := 0; s < p.N(); s++ {
		for m := 0; m < p.M(); m++ {
			if st.Assignment().Get(s, m) != before.Get(s, m) {
				t.Fatalf("propose mutated live assignment at (%d,%d)", s, m)
			}
		}
	}

	// Commit adopts the proposed deltas.
	if err := eng.CommitProposal(res); err != nil {
		t.Fatalf("commit: %v", err)
	}
	for _, d := range res.Changed {
		if got := st.Assignment().Get(d.Service, d.Machine); got != d.After {
			t.Fatalf("cell (%d,%d) = %d after commit, want %d", d.Service, d.Machine, got, d.After)
		}
	}
	// The proposal's full pass counts exactly once toward the seed
	// schedule: the commit does not count it again.
	if got := st.Log().FullRuns(); got != 1 {
		t.Fatalf("full runs = %d after propose+commit, want 1", got)
	}

	// With a clean state, a second propose is a noop and committing it
	// is a no-op too.
	res, err = eng.Propose(ctx)
	if err != nil {
		t.Fatalf("noop propose: %v", err)
	}
	if res.Mode != ModeNoop {
		t.Fatalf("mode = %v, want noop", res.Mode)
	}
	if err := eng.CommitProposal(res); err != nil {
		t.Fatalf("noop commit: %v", err)
	}
}

func TestCommitProposalStale(t *testing.T) {
	st := newTestState(t, t3())
	eng := New(st, testOptions(), nil)
	ctx := context.Background()

	res, err := eng.Propose(ctx)
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	// An event lands between the proposal and its commit: the proposal
	// was computed against a state that no longer exists.
	r := st.Problem().Services[0].Replicas
	if _, err := eng.Apply(lifetime.ScaleService{Service: 0, Replicas: r + 1}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := eng.CommitProposal(res); !errors.Is(err, ErrStaleProposal) {
		t.Fatalf("commit after event: err = %v, want ErrStaleProposal", err)
	}
	// The next propose sees the event and produces a committable result.
	res, err = eng.Propose(ctx)
	if err != nil {
		t.Fatalf("re-propose: %v", err)
	}
	if err := eng.CommitProposal(res); err != nil {
		t.Fatalf("re-commit: %v", err)
	}
	if got := st.Assignment().Placed(0); got != r+1 {
		t.Fatalf("service 0 placed %d, want %d", got, r+1)
	}
}

// TestMovesCountedOnAdoption: rasa_incr_moves_total and the delta
// wall-time histogram record adopted passes only. A proposal leaves
// them unchanged until CommitProposal adopts it, which adds exactly its
// Moves; a delta pass observes its wall time once, when adopted.
func TestMovesCountedOnAdoption(t *testing.T) {
	st := newTestState(t, t3())
	reg := obs.NewRegistry()
	eng := New(st, testOptions(), reg)
	ctx := context.Background()
	moves := reg.Counter("rasa_incr_moves_total", "Containers moved by adopted re-optimizations.")
	deltas := reg.Histogram("rasa_incr_delta_solve_seconds", "Wall time of adopted delta passes.", nil)

	// propose runs a pass without adopting it and checks it counted
	// nothing, then commits it and checks it counted exactly once.
	propose := func(want Mode) {
		t.Helper()
		m0, d0 := moves.Value(), deltas.Count()
		res, err := eng.Propose(ctx)
		if err != nil {
			t.Fatalf("propose: %v", err)
		}
		if res.Mode != want {
			t.Fatalf("proposal mode %v, want %v", res.Mode, want)
		}
		if got := moves.Value(); got != m0 {
			t.Fatalf("moves counter %v after an uncommitted proposal, want %v", got, m0)
		}
		if got := deltas.Count(); got != d0 {
			t.Fatalf("%d delta observations after an uncommitted proposal, want %d", got, d0)
		}
		if err := eng.CommitProposal(res); err != nil {
			t.Fatalf("commit: %v", err)
		}
		if got := moves.Value(); got != m0+float64(res.Moves) {
			t.Fatalf("moves counter %v after commit, want %v + %d", got, m0, res.Moves)
		}
		wantDeltas := d0
		if want == ModeDelta {
			wantDeltas++
		}
		if got := deltas.Count(); got != wantDeltas {
			t.Fatalf("%d delta observations after commit, want %d", got, wantDeltas)
		}
	}
	propose(ModeFull)
	if moves.Value() == 0 {
		t.Fatal("the bootstrap proposal moved nothing, so it cannot tell a proposal from an adoption")
	}

	// One scaled service dirties one subproblem: a delta proposal.
	target := -1
	for s, g := range st.subOf {
		if g >= 0 {
			target = s
			break
		}
	}
	if _, err := eng.Apply(lifetime.ScaleService{Service: target, Replicas: st.Problem().Services[target].Replicas + 2}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	propose(ModeDelta)
}
