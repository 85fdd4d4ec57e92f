package incr

import (
	"context"
	"testing"
)

// TestProposeCommitAdopt covers the two-phase contract an executor
// relies on: Propose computes without adopting, and landing the
// proposal's changed cells adopts it without counting the full pass
// twice.
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
	if res.Plan == nil {
		t.Fatal("bootstrap proposal has no migration plan")
	}
	p := st.Problem()
	for s := 0; s < p.N(); s++ {
		for m := 0; m < p.M(); m++ {
			if st.Assignment().Get(s, m) != before.Get(s, m) {
				t.Fatalf("propose mutated live assignment at (%d,%d)", s, m)
			}
		}
	}

	// Landing the proposed deltas adopts them.
	if err := commit(st, res); err != nil {
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

	// With a clean state, a second propose is a noop.
	res, err = eng.Propose(ctx)
	if err != nil {
		t.Fatalf("noop propose: %v", err)
	}
	if res.Mode != ModeNoop || res.Plan != nil || res.Moves != 0 {
		t.Fatalf("mode = %v, plan %v, moves %d; want a noop", res.Mode, res.Plan != nil, res.Moves)
	}
}
