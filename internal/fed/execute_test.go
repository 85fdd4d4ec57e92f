package fed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/exec"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/workload"
)

// newExecPool builds a pool over the equivalence preset with migration
// planning on and every solver knob pinned, so the same calls on two
// such pools propose the same plans. Its first Execute is the bootstrap
// full pass, which relocates containers in every block.
func newExecPool(t *testing.T) *Pool {
	t.Helper()
	c, err := workload.Generate(equivalencePreset())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	pl, err := New(c.Problem, c.Original, Options{Shards: 2, Engine: equivalenceOpts(c.Problem.N())}, nil)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	if pl.Blocks() < 3 {
		t.Fatalf("preset produced %d blocks, want >= 3", pl.Blocks())
	}
	return pl
}

// barrier holds every fabric command until each of n blocks has a
// command in flight, or until its deadline passes.
type barrier struct {
	n        int
	deadline context.Context
	mu       sync.Mutex
	seen     map[int]bool
	all      chan struct{}
}

func (r *barrier) arrive(block int) bool {
	r.mu.Lock()
	if r.deadline.Err() == nil && !r.seen[block] {
		r.seen[block] = true
		if len(r.seen) == r.n {
			close(r.all)
		}
	}
	r.mu.Unlock()
	select {
	case <-r.all:
		return true
	case <-r.deadline.Done():
		return false
	}
}

type barrierFabric struct {
	exec.Fabric
	block int
	r     *barrier
}

func (f barrierFabric) Apply(ctx context.Context, cmd migrate.Command) error {
	if !f.r.arrive(f.block) {
		return errors.New("blocks did not actuate concurrently")
	}
	return f.Fabric.Apply(ctx, cmd)
}

// TestExecuteActuatesBlocksConcurrently proves overlap without sleeps:
// no block's command completes until every block has one in flight.
// Blocks run one after another would leave the first block waiting
// for the others until the deadline.
func TestExecuteActuatesBlocksConcurrently(t *testing.T) {
	pl := newExecPool(t)
	deadline, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r := &barrier{n: pl.Blocks(), deadline: deadline, seen: make(map[int]bool), all: make(chan struct{})}
	res, err := pl.Execute(context.Background(), func(blockID int, gMach []int, start *cluster.Assignment) exec.Fabric {
		return barrierFabric{Fabric: exec.NewInstantFabric(start), block: blockID, r: r}
	}, exec.Options{MaxAttempts: 1, MaxReplans: -1})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	rep := res.Report
	select {
	case <-r.all:
	default:
		t.Fatalf("only %d of %d blocks had a command in flight at once", len(r.seen), r.n)
	}
	if rep.Outcome != exec.OutcomeCompleted || rep.Executed == 0 {
		t.Fatalf("outcome %v, %d executed: %s", rep.Outcome, rep.Executed, rep.Err)
	}
}

// sameReport compares two executor reports field for field, floats
// bit for bit; Elapsed is wall time and is skipped.
func sameReport(t *testing.T, what string, got, want *exec.Report) {
	t.Helper()
	if !migrate.Equal(got.Final, want.Final) {
		t.Fatalf("%s: final assignments differ", what)
	}
	g, w := *got, *want
	g.Final, w.Final, g.Elapsed, w.Elapsed = nil, nil, 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: reports differ\nconcurrent %+v\nsequential %+v", what, g, w)
	}
}

// TestConcurrentExecuteMatchesSequential runs the same two rounds —
// bootstrap, then churn — on two identical pools, one through Execute
// and one through the block-by-block reference, on seeded faulty
// fabrics: transient failures, jittered latency and one machine death
// per block. With one command in flight per block each block's fault
// sequence is fixed, so every per-block report, the aggregate and every
// block's log must come out identical.
func TestConcurrentExecuteMatchesSequential(t *testing.T) {
	conc, seq := newExecPool(t), newExecPool(t)
	fabFor := func(blockID int, gMach []int, start *cluster.Assignment) exec.Fabric {
		return exec.NewFaultFabric(start, exec.FaultConfig{
			FailureProb:   0.2,
			Latency:       200 * time.Microsecond,
			LatencyJitter: 0.5,
			Deaths:        []exec.MachineDeath{{Machine: len(gMach) - 1, AfterCommands: 3}},
			Seed:          int64(100 + blockID),
		})
	}
	opts := exec.Options{
		Parallelism: 1, MaxAttempts: 6, MaxReplans: 6,
		BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond, Seed: 3,
	}
	ctx := context.Background()
	var retries, deaths int
	for round := 0; round < 2; round++ {
		if round == 1 {
			batch := []lifetime.Event{lifetime.ReplanRequested{Reason: "test"}}
			for s := 0; s < len(conc.svcOwner); s += 5 {
				batch = append(batch, lifetime.ScaleService{Service: s, Replicas: 2 + s%4})
			}
			for _, pl := range []*Pool{conc, seq} {
				if _, err := pl.Apply(batch...); err != nil {
					t.Fatalf("churn: %v", err)
				}
			}
		}
		res, gotBlocks, err := conc.execute(ctx, fabFor, opts)
		if err != nil {
			t.Fatalf("round %d: execute: %v", round, err)
		}
		want, wantBlocks, err := seq.executeSequential(ctx, fabFor, opts)
		if err != nil {
			t.Fatalf("round %d: reference: %v", round, err)
		}
		for i := range wantBlocks {
			sameReport(t, fmt.Sprintf("round %d block %d", round, i), gotBlocks[i], wantBlocks[i])
			if gh, wh := conc.blocks[i].log().Head(), seq.blocks[i].log().Head(); gh != wh {
				t.Fatalf("round %d block %d: log head %d, reference %d", round, i, gh, wh)
			}
		}
		got := res.Report
		sameReport(t, fmt.Sprintf("round %d aggregate", round), got, want)
		if got.FloorViolations != 0 {
			t.Fatalf("round %d: %d floor violations", round, got.FloorViolations)
		}
		retries += got.Retries
		deaths += len(got.DeadMachines)
	}
	if retries == 0 || deaths == 0 {
		t.Fatalf("fault schedule never fired: %d retries, %d deaths", retries, deaths)
	}
}

// TestExecuteReportsBlockCheckpoints: the aggregate report keeps every
// block's checkpoints, each naming the block whose log its offset
// points into.
func TestExecuteReportsBlockCheckpoints(t *testing.T) {
	pl := newExecPool(t)
	res, err := pl.Execute(context.Background(), func(blockID int, gMach []int, start *cluster.Assignment) exec.Fabric {
		return exec.NewFaultFabric(start, exec.FaultConfig{
			Deaths: []exec.MachineDeath{{Machine: len(gMach) - 1, AfterCommands: 1}},
			Seed:   int64(blockID + 1),
		})
	}, exec.Options{})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	rep := res.Report
	if len(rep.DeadMachines) == 0 {
		t.Fatal("no scheduled death fired")
	}
	if len(rep.Checkpoints) == 0 {
		t.Fatalf("%d machines died and the report holds no checkpoint", len(rep.DeadMachines))
	}
	for _, cp := range rep.Checkpoints {
		if cp.Block < 0 || cp.Block >= pl.Blocks() {
			t.Fatalf("checkpoint names block %d of %d", cp.Block, pl.Blocks())
		}
		if head := pl.blocks[cp.Block].log().Head(); cp.Offset == 0 || cp.Offset > head {
			t.Fatalf("checkpoint offset %d, block %d log head %d", cp.Offset, cp.Block, head)
		}
	}
}

// globalObserver watches every block fabric of a pool at once, in
// global indices. On each applied command it checks every machine's
// capacity across the whole cluster and records the service's lowest
// alive count; once the blocks' final placements are known, those
// lows are checked against the executor's SLA floor, floor(minAlive ×
// replicas) clamped to the entry and final placements.
type globalObserver struct {
	mu       sync.Mutex
	minAlive float64
	gSvc     map[int][]int // block id -> local service -> global
	alive    map[int]int
	lowest   map[int]int
	floor    map[int]int
	request  map[int]cluster.Resources
	used     map[int]cluster.Resources
	capacity map[int]cluster.Resources
	applies  int
	deletes  int
	over     []string
}

func (o *globalObserver) reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.gSvc = map[int][]int{}
	o.alive, o.lowest, o.floor = map[int]int{}, map[int]int{}, map[int]int{}
	o.request, o.used, o.capacity = map[int]cluster.Resources{}, map[int]cluster.Resources{}, map[int]cluster.Resources{}
}

// addBlock enters one block's entry state.
func (o *globalObserver) addBlock(id int, bp *cluster.Problem, start *cluster.Assignment, gSvc, gMach []int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.gSvc[id] = gSvc
	used := start.UsedResources(bp)
	for ls, gs := range gSvc {
		o.alive[gs] = start.Placed(ls)
		o.lowest[gs] = o.alive[gs]
		o.floor[gs] = min(int(o.minAlive*float64(bp.Services[ls].Replicas)), o.alive[gs])
		o.request[gs] = bp.Services[ls].Request
	}
	for lm, gm := range gMach {
		o.used[gm] = used[lm]
		o.capacity[gm] = bp.Machines[lm].Capacity
	}
}

func (o *globalObserver) applied(gs, gm int, op migrate.Op) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.applies++
	if op == migrate.Delete {
		o.deletes++
		o.alive[gs]--
		o.used[gm] = o.used[gm].Sub(o.request[gs])
	} else {
		o.alive[gs]++
		o.used[gm] = o.used[gm].Add(o.request[gs])
	}
	o.lowest[gs] = min(o.lowest[gs], o.alive[gs])
	for m, u := range o.used {
		if !u.Fits(o.capacity[m]) {
			o.over = append(o.over, fmt.Sprintf("machine %d load %v over capacity %v", m, u, o.capacity[m]))
		}
	}
}

// floorViolations checks each service's lowest alive count against its
// floor, clamped to the final placement the block reports hold.
func (o *globalObserver) floorViolations(reps []*exec.Report) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []string
	for id, rep := range reps {
		for ls, gs := range o.gSvc[id] {
			if f := min(o.floor[gs], rep.Final.Placed(ls)); o.lowest[gs] < f {
				out = append(out, fmt.Sprintf("service %d fell to %d, floor %d", gs, o.lowest[gs], f))
			}
		}
	}
	return out
}

// observedFabric reports each command it applied to the observer in
// global indices.
type observedFabric struct {
	exec.Fabric
	obs         *globalObserver
	gSvc, gMach []int
}

func (f observedFabric) Apply(ctx context.Context, cmd migrate.Command) error {
	if err := f.Fabric.Apply(ctx, cmd); err != nil {
		return err
	}
	f.obs.applied(f.gSvc[cmd.Service], f.gMach[cmd.Machine], cmd.Op)
	return nil
}

// TestPerBlockValidityIsGlobal is the lemma behind concurrent
// actuation: every command names one block's service and one block's
// machine, so per-block floor and capacity validity is global validity
// under any interleaving of blocks. One observer shared by every block
// fabric checks the global invariants while blocks actuate at once on
// jittered fabrics and churn arrives from another goroutine.
func TestPerBlockValidityIsGlobal(t *testing.T) {
	pl := newExecPool(t)
	obs := &globalObserver{minAlive: 0.75}
	fabFor := func(blockID int, gMach []int, start *cluster.Assignment) exec.Fabric {
		// Execute holds the block's lock while it builds the fabric.
		b := pl.blocks[blockID]
		gSvc := append([]int(nil), b.gSvc...)
		obs.addBlock(blockID, b.eng.State().Problem(), start, gSvc, gMach)
		return observedFabric{
			Fabric: exec.NewFaultFabric(start, exec.FaultConfig{
				Latency: 100 * time.Microsecond, LatencyJitter: 0.9, Seed: int64(blockID + 1),
			}),
			obs: obs, gSvc: gSvc, gMach: gMach,
		}
	}

	n := len(pl.svcOwner)
	stop := make(chan struct{})
	done := make(chan struct{})
	var churned atomic.Int64
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(5))
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			ev := lifetime.Event(lifetime.ScaleService{Service: rng.Intn(n), Replicas: 2 + rng.Intn(4)})
			if rng.Intn(3) == 0 {
				ev = lifetime.ReplanRequested{Reason: "churn"}
			}
			if _, err := pl.Apply(ev); err != nil {
				t.Errorf("churn: %v", err)
			}
			churned.Add(1)
		}
	}()
	stopChurn := sync.OnceFunc(func() { close(stop); <-done })
	defer stopChurn()

	// Keep executing until enough churn has interleaved with the rounds.
	ctx := context.Background()
	rounds := 0
	for ; rounds < 4 || churned.Load() < 50; rounds++ {
		obs.reset()
		res, blocks, err := pl.execute(ctx, fabFor, exec.Options{MinAlive: obs.minAlive, Parallelism: 4})
		if err != nil {
			t.Fatalf("round %d: execute: %v", rounds, err)
		}
		rep := res.Report
		if rep.Outcome != exec.OutcomeCompleted || rep.FloorViolations != 0 {
			t.Fatalf("round %d: outcome %v, %d floor violations: %s", rounds, rep.Outcome, rep.FloorViolations, rep.Err)
		}
		if v := obs.floorViolations(blocks); len(v) > 0 {
			t.Fatalf("round %d: %d global floor violations, first: %s", rounds, len(v), v[0])
		}
	}
	stopChurn()

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.over) > 0 {
		t.Fatalf("%d capacity overruns over %d applies, first: %s", len(obs.over), obs.applies, obs.over[0])
	}
	if obs.deletes == 0 {
		t.Fatalf("no delete among %d applies: the floors were never tested", obs.applies)
	}
}
