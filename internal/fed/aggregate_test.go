package fed

import (
	"context"
	"math"
	"testing"

	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/obs"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/workload"
)

// TestResultAggregatesBlocks checks the engine-shaped fields of Result:
// the highest path any block took, the first escalation reason, summed
// subproblem counts and the affinity-weighted baseline gain.
func TestResultAggregatesBlocks(t *testing.T) {
	pl := newTestPool(t, 2)
	ctx := context.Background()

	res, err := reoptimize(ctx, pl)
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

	res, err = reoptimize(ctx, pl)
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
	res, err = reoptimize(ctx, pl)
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
	for _, shards := range []int{1, 2, 3, 4} {
		pl := newTestPool(t, shards)
		want := 0
		for _, sh := range pl.Status().Shards {
			want = max(want, len(sh.Blocks))
		}
		if got := pl.MaxShardBlocks(); got != want || got < 1 {
			t.Fatalf("shards=%d: MaxShardBlocks %d, Status says %d", shards, got, want)
		}
	}
}

// TestRoundRobinOwners checks that blocks are dealt round-robin: block
// id goes to shard id mod Shards, so the most any shard owns is
// ceil(blocks/shards), and with at least as many shards as blocks every
// shard owns at most one.
func TestRoundRobinOwners(t *testing.T) {
	preset := workload.Preset{
		Name: "fivezone", Services: 40, Containers: 200, Machines: 10,
		Beta: 1.7, AffinityFraction: 0.6, Zones: 5, CommunitySize: 4,
		Utilization: 0.5, Seed: 3,
	}
	c, err := workload.Generate(preset)
	if err != nil {
		t.Fatal(err)
	}
	blocks := len(partition.Blocks(c.Problem))
	if blocks < 3 {
		t.Fatalf("preset produced %d blocks, want at least 3", blocks)
	}
	t.Logf("%d blocks", blocks)
	for shards := 1; shards <= blocks+1; shards++ {
		c, err := workload.Generate(preset) // the pool takes ownership
		if err != nil {
			t.Fatal(err)
		}
		pl, err := New(c.Problem, c.Original, Options{Shards: shards, Engine: testEngineOpts()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := (blocks + shards - 1) / shards; pl.MaxShardBlocks() != want {
			t.Fatalf("shards=%d blocks=%d: MaxShardBlocks %d, want %d", shards, blocks, pl.MaxShardBlocks(), want)
		}
		st := pl.Status()
		for _, b := range st.Blocks {
			if b.Shard != b.ID%shards {
				t.Fatalf("shards=%d: block %d on shard %d, want %d", shards, b.ID, b.Shard, b.ID%shards)
			}
		}
		for _, sh := range st.Shards {
			if shards >= blocks && len(sh.Blocks) > 1 {
				t.Fatalf("shards=%d >= blocks=%d: shard %d owns %v", shards, blocks, sh.ID, sh.Blocks)
			}
		}
	}
}

// TestBlockEnginesShareRegistry checks that block engines publish the
// incr series into the pool's registry.
func TestBlockEnginesShareRegistry(t *testing.T) {
	p, a := twoBlockProblem()
	reg := obs.NewRegistry()
	pl, err := New(p, a, Options{Shards: 2, Engine: testEngineOpts()}, reg)
	if err != nil {
		t.Fatal(err)
	}
	events := reg.CounterVec("rasa_incr_events_total", "", "type").With("scaleService")
	fulls := reg.CounterVec("rasa_incr_reoptimize_total", "", "mode").With("full")
	if _, err := reoptimize(context.Background(), pl); err != nil {
		t.Fatal(err)
	}
	if got := fulls.Value(); got != 2 {
		t.Fatalf("bootstrap counted %v full passes, want 2", got)
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
