package fed

import (
	"context"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/exec"
	"github.com/cloudsched/rasa/internal/graph"
	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/partition"
)

// twoBlockProblem hand-builds a cluster with exactly two compatibility
// blocks: services 0,1 pinned to machines 0,1 and services 2,3 pinned
// to machines 2,3, with intra-block affinity in both blocks plus one
// cross-block edge (1,2) of weight 2.
func twoBlockProblem() (*cluster.Problem, *cluster.Assignment) {
	p := &cluster.Problem{
		ResourceNames: []string{"cpu", "mem"},
		Services: []cluster.Service{
			{Name: "a0", Replicas: 2, Request: cluster.Resources{1, 1}},
			{Name: "a1", Replicas: 2, Request: cluster.Resources{1, 1}},
			{Name: "b0", Replicas: 2, Request: cluster.Resources{1, 1}},
			{Name: "b1", Replicas: 2, Request: cluster.Resources{1, 1}},
		},
		Machines: []cluster.Machine{
			{Name: "m0", Capacity: cluster.Resources{10, 10}},
			{Name: "m1", Capacity: cluster.Resources{10, 10}},
			{Name: "m2", Capacity: cluster.Resources{10, 10}},
			{Name: "m3", Capacity: cluster.Resources{10, 10}},
		},
	}
	p.Affinity = graph.New(4)
	p.Affinity.AddEdge(0, 1, 5)
	p.Affinity.AddEdge(2, 3, 3)
	p.Affinity.AddEdge(1, 2, 2)
	pin := func(machines ...int) cluster.Bitmap {
		bm := cluster.NewBitmap(4)
		for _, m := range machines {
			bm.Set(m)
		}
		return bm
	}
	p.Schedulable = []cluster.Bitmap{pin(0, 1), pin(0, 1), pin(2, 3), pin(2, 3)}

	a := cluster.NewAssignment(4, 4)
	a.Set(0, 0, 2)
	a.Set(1, 1, 2)
	a.Set(2, 2, 2)
	a.Set(3, 3, 2)
	return p, a
}

func testEngineOpts() incr.Options {
	return incr.Options{
		Budget:      5 * time.Second,
		Parallelism: 1,
	}
}

// reoptimize is one execution on instant fabrics, as POST
// /v1/cluster/reoptimize runs it.
func reoptimize(ctx context.Context, pl *Pool) (*Result, error) {
	return pl.Execute(ctx, func(_ int, _ []int, start *cluster.Assignment) exec.Fabric {
		return exec.NewInstantFabric(start)
	}, exec.Options{})
}

func newTestPool(t *testing.T, shards int) *Pool {
	t.Helper()
	p, a := twoBlockProblem()
	pl, err := New(p, a, Options{Shards: shards, Engine: testEngineOpts()}, nil)
	if err != nil {
		t.Fatalf("new pool: %v", err)
	}
	return pl
}

func TestPoolTopology(t *testing.T) {
	pl := newTestPool(t, 2)
	if pl.Blocks() != 2 {
		t.Fatalf("blocks = %d, want 2", pl.Blocks())
	}
	if pl.Shards() != 2 {
		t.Fatalf("shards=%d, want 2", pl.Shards())
	}
	if pl.crossTotal != 2 {
		t.Fatalf("crossTotal = %v, want 2", pl.crossTotal)
	}
	st := pl.Stats()
	if st.Services != 4 || st.Machines != 4 {
		t.Fatalf("stats services=%d machines=%d, want 4/4", st.Services, st.Machines)
	}
	// Global denominator: 5 + 3 intra plus 2 cross.
	if st.TotalAffinity != 10 {
		t.Fatalf("total affinity = %v, want 10", st.TotalAffinity)
	}

	status := pl.Status()
	if len(status.Blocks) != 2 || len(status.Shards) != 2 {
		t.Fatalf("status %+v", status)
	}
	blockSeen := 0
	for _, sh := range status.Shards {
		blockSeen += len(sh.Blocks)
	}
	if blockSeen != 2 {
		t.Fatalf("shard block lists cover %d blocks, want 2", blockSeen)
	}

	// The full assignment round-trips through the per-block states.
	got := pl.Assignment()
	for s := 0; s < 4; s++ {
		if got.Placed(s) != 2 {
			t.Fatalf("service %d placed %d, want 2", s, got.Placed(s))
		}
	}
}

func TestEventRoutingAndJournal(t *testing.T) {
	pl := newTestPool(t, 2)
	n, err := pl.Apply(
		lifetime.ScaleService{Service: 2, Replicas: 3},
		lifetime.DrainMachine{Machine: 0},
	)
	if err != nil || n != 2 {
		t.Fatalf("apply: n=%d err=%v", n, err)
	}
	if pl.Head() != 2 {
		t.Fatalf("journal head = %d, want 2", pl.Head())
	}
	entries := pl.Entries(1, 10)
	if len(entries) != 2 || entries[0].Seq != 1 || entries[1].Seq != 2 {
		t.Fatalf("entries %+v", entries)
	}
	if got := pl.Entries(3, 10); got != nil {
		t.Fatalf("entries past head = %+v, want nil", got)
	}
	// A page copies at most limit entries.
	if got := pl.Entries(1, 1); len(got) != 1 || got[0].Seq != 1 || cap(got) != 1 {
		t.Fatalf("one-entry page = %+v (cap %d), want entry 1 alone", got, cap(got))
	}
	if got := pl.Entries(2, 5); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("page from 2 = %+v, want entry 2", got)
	}

	// Scale of global service 2 must land in block 1 as local service 0.
	b1 := pl.blocks[1]
	if b1.eng.State().Problem().Services[0].Replicas != 3 {
		t.Fatal("scale event did not reach owner block")
	}
	if b1.events != 1 || pl.blocks[0].events != 1 {
		t.Fatalf("routed counts = %d/%d, want 1/1", pl.blocks[0].events, b1.events)
	}

	// A bad event stops the batch and reports how many applied.
	n, err = pl.Apply(lifetime.ScaleService{Service: 1, Replicas: 3}, lifetime.ScaleService{Service: 99, Replicas: 1})
	if err == nil || n != 1 {
		t.Fatalf("bad batch: n=%d err=%v", n, err)
	}
	if pl.Head() != 3 {
		t.Fatalf("journal head = %d after failed batch, want 3", pl.Head())
	}

	// Engine-internal events cannot be routed.
	if _, err := pl.Apply(lifetime.PlanCommitted{}); err == nil {
		t.Fatal("PlanCommitted accepted by router")
	}
}

func TestCrossEdgeLedger(t *testing.T) {
	pl := newTestPool(t, 2)
	// Reweight the existing cross edge (1,2): ledger only, no block log.
	if _, err := pl.Apply(lifetime.UpdateAffinity{A: 2, B: 1, Weight: 7}); err != nil {
		t.Fatalf("cross update: %v", err)
	}
	if pl.crossTotal != 7 {
		t.Fatalf("crossTotal = %v, want 7", pl.crossTotal)
	}
	if h := pl.blocks[0].log().Head(); h != 0 {
		t.Fatalf("cross edge leaked into block log (head %d)", h)
	}
	// New cross edge and deletion.
	if _, err := pl.Apply(lifetime.UpdateAffinity{A: 0, B: 3, Weight: 1}); err != nil {
		t.Fatalf("new cross edge: %v", err)
	}
	if pl.crossTotal != 8 || len(pl.cross) != 2 {
		t.Fatalf("crossTotal=%v edges=%d, want 8/2", pl.crossTotal, len(pl.cross))
	}
	if _, err := pl.Apply(lifetime.UpdateAffinity{A: 0, B: 3, Weight: 0}); err != nil {
		t.Fatalf("delete cross edge: %v", err)
	}
	if pl.crossTotal != 7 || len(pl.cross) != 1 {
		t.Fatalf("after delete crossTotal=%v edges=%d, want 7/1", pl.crossTotal, len(pl.cross))
	}

	// Intra-block updates forward to the owner's graph.
	if _, err := pl.Apply(lifetime.UpdateAffinity{A: 0, B: 1, Weight: 9}); err != nil {
		t.Fatalf("intra update: %v", err)
	}
	if w := pl.blocks[0].eng.State().Problem().Affinity.Weight(0, 1); w != 9 {
		t.Fatalf("block edge weight = %v, want 9", w)
	}

	// Invalid updates are rejected with the tables intact.
	for _, ev := range []lifetime.Event{
		lifetime.UpdateAffinity{A: 0, B: 0, Weight: 1},
		lifetime.UpdateAffinity{A: -1, B: 1, Weight: 1},
		lifetime.UpdateAffinity{A: 0, B: 1, Weight: -2},
	} {
		if _, err := pl.Apply(ev); err == nil {
			t.Fatalf("invalid %+v accepted", ev)
		}
	}
}

func TestAddMachineAndRemoveService(t *testing.T) {
	pl := newTestPool(t, 2)
	cap := cluster.Resources{10, 10}
	// Two AddMachines round-robin onto blocks 0 then 1.
	if _, err := pl.Apply(
		lifetime.AddMachine{Name: "n0", Capacity: cap},
		lifetime.AddMachine{Name: "n1", Capacity: cap},
	); err != nil {
		t.Fatalf("add machines: %v", err)
	}
	if len(pl.machOwner) != 6 {
		t.Fatalf("machOwner len = %d, want 6", len(pl.machOwner))
	}
	if pl.machOwner[4] != 0 || pl.machOwner[5] != 1 {
		t.Fatalf("owners of new machines = %d,%d, want 0,1", pl.machOwner[4], pl.machOwner[5])
	}
	if got := pl.blocks[0].gMach; len(got) != 3 || got[2] != 4 {
		t.Fatalf("block 0 gMach = %v", got)
	}
	if pl.blocks[0].eng.State().Problem().M() != 3 {
		t.Fatal("block 0 engine did not grow")
	}

	// Remove global service 1 (block 0 local 1): indices above shift.
	if _, err := pl.Apply(lifetime.RemoveService{Service: 1}); err != nil {
		t.Fatalf("remove service: %v", err)
	}
	if len(pl.svcOwner) != 3 {
		t.Fatalf("svcOwner len = %d, want 3", len(pl.svcOwner))
	}
	// Old services 2,3 are now 1,2, still owned by block 1.
	if pl.svcOwner[1] != 1 || pl.svcOwner[2] != 1 || pl.svcLocal[1] != 0 || pl.svcLocal[2] != 1 {
		t.Fatalf("tables after remove: owner=%v local=%v", pl.svcOwner, pl.svcLocal)
	}
	if got := pl.blocks[1].gSvc; got[0] != 1 || got[1] != 2 {
		t.Fatalf("block 1 gSvc = %v, want [1 2]", got)
	}
	// The cross edge (1,2) lost its endpoint: ledger drops its weight.
	if pl.crossTotal != 0 || len(pl.cross) != 0 {
		t.Fatalf("cross ledger after remove: total=%v edges=%d", pl.crossTotal, len(pl.cross))
	}
	// Events to the shifted indices land in the right block.
	if _, err := pl.Apply(lifetime.ScaleService{Service: 1, Replicas: 4}); err != nil {
		t.Fatalf("scale shifted service: %v", err)
	}
	if pl.blocks[1].eng.State().Problem().Services[0].Replicas != 4 {
		t.Fatal("scale of shifted index missed its block")
	}

	// Block 0 is down to one service: removing it would orphan the block.
	if _, err := pl.Apply(lifetime.RemoveService{Service: 0}); err == nil {
		t.Fatal("removed last service of a block")
	}
}

func TestMoveEventsCrossBlockRejected(t *testing.T) {
	pl := newTestPool(t, 2)
	if _, err := pl.Apply(lifetime.MoveStarted{Op: lifetime.OpCreate, Service: 0, Machine: 2}); err == nil {
		t.Fatal("cross-block move event accepted")
	}
	// Same-block move events route through.
	evs := []lifetime.Event{
		lifetime.MoveStarted{Op: lifetime.OpCreate, Service: 0, Machine: 1},
		lifetime.MoveApplied{Op: lifetime.OpCreate, Service: 0, Machine: 1},
	}
	if _, err := pl.Apply(evs...); err != nil {
		t.Fatalf("intra-block move events: %v", err)
	}
	if got := pl.blocks[0].eng.State().Assignment().Get(0, 1); got != 1 {
		t.Fatalf("move not applied to block state: got %d", got)
	}
}

func TestReoptimizeScatterGather(t *testing.T) {
	pl := newTestPool(t, 2)
	ctx := context.Background()

	// Bootstrap: both blocks run the full pipeline.
	res, err := reoptimize(ctx, pl)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if res.Fulls != 2 || res.Report.FloorViolations != 0 {
		t.Fatalf("bootstrap fulls=%d floor violations=%d", res.Fulls, res.Report.FloorViolations)
	}
	if res.NormalizedGain < 0 || res.NormalizedGain > 1 {
		t.Fatalf("normalized gain %v out of range", res.NormalizedGain)
	}

	// Nothing dirty: both blocks noop, and the journal does not grow.
	res, err = reoptimize(ctx, pl)
	if err != nil {
		t.Fatalf("noop pass: %v", err)
	}
	if res.Noops != 2 || res.Moves != 0 {
		t.Fatalf("noop pass: noops=%d moves=%d", res.Noops, res.Moves)
	}

	// Dirty one block only: the other stays noop.
	if _, err := pl.Apply(lifetime.ScaleService{Service: 3, Replicas: 3}); err != nil {
		t.Fatalf("scale: %v", err)
	}
	res, err = reoptimize(ctx, pl)
	if err != nil {
		t.Fatalf("delta pass: %v", err)
	}
	if res.Noops != 1 || res.Noops+res.Deltas+res.Fulls != 2 {
		t.Fatalf("delta pass: noops=%d deltas=%d fulls=%d", res.Noops, res.Deltas, res.Fulls)
	}
	a := pl.Assignment()
	if a.Placed(3) != 3 {
		t.Fatalf("service 3 placed %d, want 3", a.Placed(3))
	}
	// Merged deltas are in global indices.
	for _, d := range res.Changed {
		if d.Service < 0 || d.Service >= 4 || d.Machine < 0 || d.Machine >= 4 {
			t.Fatalf("delta out of global range: %+v", d)
		}
		if d.Service < 2 {
			t.Fatalf("clean block produced delta %+v", d)
		}
	}
}

func TestMergedPlanGlobalIndices(t *testing.T) {
	p, a := twoBlockProblem()
	pl, err := New(p, a, Options{Shards: 2, Engine: testEngineOpts()}, nil)
	if err != nil {
		t.Fatalf("new pool: %v", err)
	}
	ctx := context.Background()
	res, err := reoptimize(ctx, pl)
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if res.Plan == nil {
		// Nothing needed moving; force churn in both blocks and retry.
		if _, err := pl.Apply(
			lifetime.ScaleService{Service: 0, Replicas: 4},
			lifetime.ScaleService{Service: 2, Replicas: 4},
		); err != nil {
			t.Fatalf("churn: %v", err)
		}
		if res, err = reoptimize(ctx, pl); err != nil {
			t.Fatalf("churn pass: %v", err)
		}
	}
	if res.Plan == nil {
		t.Skip("no migration plan produced")
	}
	moves := 0
	for _, step := range res.Plan.Steps {
		for _, c := range step {
			// Every command must stay inside its service's block.
			bs := pl.svcOwner[c.Service]
			if pl.machOwner[c.Machine] != bs {
				t.Fatalf("merged command crosses blocks: %+v", c)
			}
			moves++
		}
	}
	if moves == 0 {
		t.Fatal("plan with no commands")
	}
}

func TestExecuteAggregatesBlocks(t *testing.T) {
	p, a := twoBlockProblem()
	pl, err := New(p, a, Options{Shards: 2, Engine: testEngineOpts()}, nil)
	if err != nil {
		t.Fatalf("new pool: %v", err)
	}
	ctx := context.Background()
	if _, err := reoptimize(ctx, pl); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if _, err := pl.Apply(
		lifetime.ScaleService{Service: 1, Replicas: 4},
		lifetime.ScaleService{Service: 3, Replicas: 4},
	); err != nil {
		t.Fatalf("churn: %v", err)
	}
	res, err := reoptimize(ctx, pl)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	rep := res.Report
	if rep.Outcome != exec.OutcomeCompleted {
		t.Fatalf("outcome = %v err=%q", rep.Outcome, rep.Err)
	}
	if rep.FloorViolations != 0 {
		t.Fatalf("floor violations = %d, want 0", rep.FloorViolations)
	}
	got := rep.Final
	if got.Placed(1) != 4 || got.Placed(3) != 4 {
		t.Fatalf("final placements %d/%d, want 4/4", got.Placed(1), got.Placed(3))
	}
}

func TestBlocksPartitionCoversCluster(t *testing.T) {
	p, _ := twoBlockProblem()
	blocks := partition.Blocks(p)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(blocks))
	}
	seenS, seenM := map[int]bool{}, map[int]bool{}
	for _, b := range blocks {
		for _, s := range b.Services {
			if seenS[s] {
				t.Fatalf("service %d in two blocks", s)
			}
			seenS[s] = true
		}
		for _, m := range b.Machines {
			if seenM[m] {
				t.Fatalf("machine %d in two blocks", m)
			}
			seenM[m] = true
		}
	}
	if len(seenS) != p.N() || len(seenM) != p.M() {
		t.Fatalf("coverage %d/%d services, %d/%d machines", len(seenS), p.N(), len(seenM), p.M())
	}
}
