package fed

import (
	"context"
	"math"
	"testing"

	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/obs"
)

// TestResultAggregatesBlocks checks the engine-shaped fields of Result:
// the highest path any block took, the first escalation reason, summed
// subproblem counts and the affinity-weighted baseline gain.
func TestResultAggregatesBlocks(t *testing.T) {
	pl := newTestPool(t, 2)
	ctx := context.Background()

	res, err := pl.Reoptimize(ctx)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if res.Mode != incr.ModeFull || res.EscalationReason != incr.ReasonBootstrap {
		t.Fatalf("bootstrap mode=%v reason=%q", res.Mode, res.EscalationReason)
	}
	st := pl.Stats()
	if math.Abs(res.BaselineGain-st.BaselineGain) > 1e-12 || res.BaselineGain <= 0 {
		t.Fatalf("baseline gain %v, pool stats %v", res.BaselineGain, st.BaselineGain)
	}

	res, err = pl.Reoptimize(ctx)
	if err != nil {
		t.Fatalf("noop pass: %v", err)
	}
	if res.Mode != incr.ModeNoop || res.EscalationReason != "" || res.DirtySubproblems != 0 {
		t.Fatalf("noop pass mode=%v reason=%q dirty=%d", res.Mode, res.EscalationReason, res.DirtySubproblems)
	}
	if res.TotalSubproblems != st.TotalSubproblems || res.TotalSubproblems < 2 {
		t.Fatalf("noop pass total=%d, pool stats %d", res.TotalSubproblems, st.TotalSubproblems)
	}

	// Dirty one block: one block noops, so the pass reports the other's
	// path and exactly the dirty subproblems it saw.
	if _, err := pl.Apply(lifetime.ScaleService{Service: 3, Replicas: 3}); err != nil {
		t.Fatalf("scale: %v", err)
	}
	dirty := pl.Stats().DirtySubproblems
	res, err = pl.Reoptimize(ctx)
	if err != nil {
		t.Fatalf("delta pass: %v", err)
	}
	if res.Noops != 1 || res.Mode == incr.ModeNoop {
		t.Fatalf("delta pass noops=%d mode=%v", res.Noops, res.Mode)
	}
	if res.DirtySubproblems != dirty || dirty < 1 {
		t.Fatalf("delta pass dirty=%d, pool stats before the pass %d", res.DirtySubproblems, dirty)
	}
	if got := pl.Stats().BaselineGain; math.Abs(res.BaselineGain-got) > 1e-12 {
		t.Fatalf("baseline gain %v, pool stats %v", res.BaselineGain, got)
	}
}

// TestMaxShardBlocks checks the shard load the server scales its
// deadlines by against the topology Status reports.
func TestMaxShardBlocks(t *testing.T) {
	pl := newTestPool(t, 2)
	for _, shards := range []int{1, 2, 3, 4} {
		if _, err := pl.Resize(shards); err != nil {
			t.Fatalf("resize to %d: %v", shards, err)
		}
		want := 0
		for _, sh := range pl.Status().Shards {
			want = max(want, len(sh.Blocks))
		}
		if got := pl.MaxShardBlocks(); got != want {
			t.Fatalf("shards=%d: MaxShardBlocks %d, Status says %d", shards, got, want)
		}
	}
	if got := pl.MaxShardBlocks(); got < 1 {
		t.Fatalf("MaxShardBlocks %d", got)
	}
	// Rendezvous hashing puts blocks 0, 1 and 2 of three on shard 2.
	if sm := newShardMap(1, 3, 3); sm.owner[0] != 2 || sm.owner[1] != 2 || sm.owner[2] != 2 {
		t.Fatalf("owners %v", sm.owner)
	}
}

// TestBlockEnginesShareRegistry checks that block engines publish the
// incr series into the pool's registry, also after a resize rebuilt a
// moved block's engine.
func TestBlockEnginesShareRegistry(t *testing.T) {
	p, a := twoBlockProblem()
	reg := obs.NewRegistry()
	pl, err := New(p, a, Options{Shards: 2, Engine: testEngineOpts()}, reg)
	if err != nil {
		t.Fatal(err)
	}
	events := reg.CounterVec("rasa_incr_events_total", "", "type").With("scaleService")
	fulls := reg.CounterVec("rasa_incr_reoptimize_total", "", "mode").With("full")
	if _, err := pl.Reoptimize(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := fulls.Value(); got != 2 {
		t.Fatalf("bootstrap counted %v full passes, want 2", got)
	}
	rep, err := pl.Resize(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MovedBlocks) == 0 {
		t.Fatal("resize moved no block")
	}
	for s := 0; s < 4; s++ {
		if _, err := pl.Apply(lifetime.ScaleService{Service: s, Replicas: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if got := events.Value(); got != 4 {
		t.Fatalf("counted %v scaleService events, want 4", got)
	}
}
