package incr

import (
	"context"
	"errors"
	"testing"

	"github.com/cloudsched/rasa/internal/lifetime"
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
	// schedule, as if Reoptimize had run it.
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
