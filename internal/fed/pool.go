package fed

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/obs"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/solve"
)

// Options tune the shard pool.
type Options struct {
	// Shards is the number of shard workers, and so the most block
	// proposals that run at once; block id goes to shard id mod Shards.
	// Default DefaultShards. One shard is valid: its worker proposes
	// every block in turn.
	Shards int
	// Engine configures every block's incremental engine; all blocks
	// share its one Engine.Policy value.
	Engine incr.Options
}

// DefaultShards is the shard count of a pool whose Options leave it 0.
const DefaultShards = 2

func (o Options) withDefaults() Options {
	if o.Shards < 1 {
		o.Shards = DefaultShards
	}
	return o
}

// Pool is the embedded shard federation: compatibility blocks sliced
// into self-contained sub-clusters, dealt round-robin onto shard
// workers, with global-index routing of churn events and a
// scatter-gather Reoptimize.
//
// Lock order: mu (tables) before any block.mu; journal's own lock is
// leaf-only. The scatter-gather pass holds solveMu for its duration and
// never touches mu while holding a block lock, so event routing
// (mu -> block.mu) cannot deadlock against it.
type Pool struct {
	opts Options
	m    *metrics
	reg  *obs.Registry // handed to every block engine and executor

	// blocks is fixed at New: events change what a block holds, never
	// how many blocks there are.
	blocks []*block

	// mu guards the routing tables and the cross-edge ledger.
	mu sync.RWMutex
	// svcOwner/svcLocal map a global service index to (block, local
	// index); machOwner/machLocal are the machine twins.
	svcOwner, svcLocal   []int
	machOwner, machLocal []int
	// cross holds affinity edges whose endpoints live in different
	// blocks, keyed by (min,max) global index. They can never be gained
	// — the endpoints never share a machine — but their weight belongs
	// in the normalized-gain denominator.
	cross      map[[2]int]float64
	crossTotal float64
	addRR      int // round-robin cursor for AddMachine placement

	// solveMu serializes scatter-gather passes.
	solveMu sync.Mutex

	// jmu guards the journal: the pool-level event history serving
	// GET /v1/cluster/log. Block logs hold the authoritative per-block
	// segments; the journal records the global-index stream in arrival
	// order.
	jmu     sync.Mutex
	journal []lifetime.EntryJSON
}

// New slices the problem into compatibility blocks, builds one engine
// per block, and deals the blocks onto opts.Shards shard workers. The
// pool takes ownership of p and a.
func New(p *cluster.Problem, a *cluster.Assignment, opts Options, reg *obs.Registry) (*Pool, error) {
	opts = opts.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	blks := partition.Blocks(p)
	bs, crossTotal, err := sliceBlocks(p, a, blks, opts.Engine, reg)
	if err != nil {
		return nil, err
	}
	pl := &Pool{
		opts:       opts,
		m:          newMetrics(reg),
		reg:        reg,
		blocks:     bs,
		svcOwner:   make([]int, p.N()),
		svcLocal:   make([]int, p.N()),
		machOwner:  make([]int, p.M()),
		machLocal:  make([]int, p.M()),
		cross:      make(map[[2]int]float64),
		crossTotal: crossTotal,
	}
	for id, blk := range blks {
		for ls, gs := range blk.Services {
			pl.svcOwner[gs] = id
			pl.svcLocal[gs] = ls
		}
		for lm, gm := range blk.Machines {
			pl.machOwner[gm] = id
			pl.machLocal[gm] = lm
		}
	}
	for _, e := range p.Affinity.Edges() {
		if pl.svcOwner[e.U] != pl.svcOwner[e.V] {
			pl.cross[edgeKey(e.U, e.V)] = e.Weight
		}
	}
	pl.m.topology(opts.Shards, len(bs))
	return pl, nil
}

func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Shards returns the shard count.
func (pl *Pool) Shards() int { return pl.opts.Shards }

// shardOf returns the shard worker that proposes block id: blocks are
// dealt round-robin, so no shard owns more than one block beyond any
// other.
func (pl *Pool) shardOf(id int) int { return id % pl.opts.Shards }

// Blocks returns the number of compatibility blocks.
func (pl *Pool) Blocks() int { return len(pl.blocks) }

// MaxShardBlocks returns the most blocks any one shard owns,
// ceil(blocks/shards). A shard worker proposes its blocks one after
// another, each under the full engine budget, so a pass can take this
// many budgets of wall time.
func (pl *Pool) MaxShardBlocks() int {
	return (len(pl.blocks) + pl.opts.Shards - 1) / pl.opts.Shards
}

// Apply routes events to their owning blocks in order, stopping at the
// first invalid one. It returns how many events were applied, matching
// the incr.State.Apply contract.
func (pl *Pool) Apply(events ...lifetime.Event) (int, error) {
	for i, ev := range events {
		if err := pl.apply(ev); err != nil {
			return i, err
		}
		pl.jmu.Lock()
		pl.journal = append(pl.journal, lifetime.EntryJSON{
			Seq: uint64(len(pl.journal) + 1), EventJSON: lifetime.ToJSON(ev),
		})
		pl.jmu.Unlock()
	}
	return len(events), nil
}

// apply routes one global-index event. Service-scoped events go to the
// service's owner, machine-scoped events to the machine's owner (with
// one engine per block there is exactly one interested party, so the
// "broadcast" of machine events degenerates to owner routing);
// ReplanRequested fans out to every block. Index-shifting events
// (AddMachine, RemoveService) also rewrite the routing tables.
func (pl *Pool) apply(ev lifetime.Event) error {
	switch e := ev.(type) {
	case lifetime.ScaleService:
		return pl.toService(e.Service, func(b *block, ls int) lifetime.Event {
			return lifetime.ScaleService{Service: ls, Replicas: e.Replicas}
		})
	case lifetime.UpdateAffinity:
		return pl.updateAffinity(e)
	case lifetime.DrainMachine:
		return pl.toMachine(e.Machine, func(b *block, lm int) lifetime.Event {
			return lifetime.DrainMachine{Machine: lm}
		})
	case lifetime.MachineDied:
		return pl.toMachine(e.Machine, func(b *block, lm int) lifetime.Event {
			return lifetime.MachineDied{Machine: lm}
		})
	case lifetime.AddMachine:
		return pl.addMachine(e)
	case lifetime.RemoveService:
		return pl.removeService(e)
	case lifetime.MoveStarted:
		return pl.toMove(e.Service, e.Machine, func(ls, lm int) lifetime.Event {
			return lifetime.MoveStarted{Op: e.Op, Service: ls, Machine: lm}
		})
	case lifetime.MoveApplied:
		return pl.toMove(e.Service, e.Machine, func(ls, lm int) lifetime.Event {
			return lifetime.MoveApplied{Op: e.Op, Service: ls, Machine: lm}
		})
	case lifetime.MoveFailed:
		return pl.toMove(e.Service, e.Machine, func(ls, lm int) lifetime.Event {
			return lifetime.MoveFailed{Op: e.Op, Service: ls, Machine: lm, Reason: e.Reason}
		})
	case lifetime.ReplanRequested:
		for _, b := range pl.blocks {
			b.mu.Lock()
			_, err := b.eng.Apply(lifetime.ReplanRequested{Reason: e.Reason})
			b.mu.Unlock()
			if err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("fed: %s events are engine-internal and cannot be routed", ev.Kind())
	}
}

// toService routes a service-scoped event to its owner block.
func (pl *Pool) toService(g int, mk func(b *block, ls int) lifetime.Event) error {
	pl.mu.RLock()
	if g < 0 || g >= len(pl.svcOwner) {
		pl.mu.RUnlock()
		return fmt.Errorf("fed: service %d out of range [0,%d)", g, len(pl.svcOwner))
	}
	b, ls := pl.blocks[pl.svcOwner[g]], pl.svcLocal[g]
	shard := pl.shardOf(b.id)
	pl.mu.RUnlock()
	return pl.applyTo(b, shard, mk(b, ls))
}

// toMachine routes a machine-scoped event to its owner block.
func (pl *Pool) toMachine(g int, mk func(b *block, lm int) lifetime.Event) error {
	pl.mu.RLock()
	if g < 0 || g >= len(pl.machOwner) {
		pl.mu.RUnlock()
		return fmt.Errorf("fed: machine %d out of range [0,%d)", g, len(pl.machOwner))
	}
	b, lm := pl.blocks[pl.machOwner[g]], pl.machLocal[g]
	shard := pl.shardOf(b.id)
	pl.mu.RUnlock()
	return pl.applyTo(b, shard, mk(b, lm))
}

// toMove routes an execution move event; service and machine must share
// a block, which for any move a block planner emitted they do.
func (pl *Pool) toMove(gs, gm int, mk func(ls, lm int) lifetime.Event) error {
	pl.mu.RLock()
	if gs < 0 || gs >= len(pl.svcOwner) || gm < 0 || gm >= len(pl.machOwner) {
		pl.mu.RUnlock()
		return fmt.Errorf("fed: move (%d,%d) out of range", gs, gm)
	}
	if pl.svcOwner[gs] != pl.machOwner[gm] {
		pl.mu.RUnlock()
		return fmt.Errorf("fed: move of service %d to machine %d crosses blocks %d and %d",
			gs, gm, pl.svcOwner[gs], pl.machOwner[gm])
	}
	b, ls, lm := pl.blocks[pl.svcOwner[gs]], pl.svcLocal[gs], pl.machLocal[gm]
	shard := pl.shardOf(b.id)
	pl.mu.RUnlock()
	return pl.applyTo(b, shard, mk(ls, lm))
}

func (pl *Pool) applyTo(b *block, shard int, ev lifetime.Event) error {
	b.mu.Lock()
	_, err := b.eng.Apply(ev)
	if err == nil {
		b.events++
	}
	b.mu.Unlock()
	if err != nil {
		return err
	}
	pl.m.event(shard)
	return nil
}

// updateAffinity forwards intra-block edges to the owner; cross-block
// edges only move weight in the pool's ledger — they are structurally
// ungainable, exactly as under a single engine where the two services
// can never share a machine.
func (pl *Pool) updateAffinity(e lifetime.UpdateAffinity) error {
	pl.mu.Lock()
	n := len(pl.svcOwner)
	if e.A < 0 || e.A >= n || e.B < 0 || e.B >= n {
		pl.mu.Unlock()
		return fmt.Errorf("fed: services (%d,%d) out of range [0,%d)", e.A, e.B, n)
	}
	if e.A == e.B {
		pl.mu.Unlock()
		return fmt.Errorf("fed: self-affinity on service %d", e.A)
	}
	if e.Weight < 0 {
		pl.mu.Unlock()
		return fmt.Errorf("fed: negative affinity weight %v", e.Weight)
	}
	if pl.svcOwner[e.A] == pl.svcOwner[e.B] {
		b, la, lb := pl.blocks[pl.svcOwner[e.A]], pl.svcLocal[e.A], pl.svcLocal[e.B]
		shard := pl.shardOf(b.id)
		pl.mu.Unlock()
		return pl.applyTo(b, shard, lifetime.UpdateAffinity{A: la, B: lb, Weight: e.Weight})
	}
	k := edgeKey(e.A, e.B)
	pl.crossTotal += e.Weight - pl.cross[k]
	if e.Weight == 0 {
		delete(pl.cross, k)
	} else {
		pl.cross[k] = e.Weight
	}
	shard := pl.shardOf(pl.svcOwner[e.A])
	pl.mu.Unlock()
	pl.m.event(shard)
	return nil
}

// addMachine grows the fleet: the new machine is assigned round-robin
// across blocks. Restricted services of the owner block do not gain it
// (the lifetime AddMachine contract), so any block is semantically as
// good as any other; round-robin keeps growth balanced.
func (pl *Pool) addMachine(e lifetime.AddMachine) error {
	pl.mu.Lock()
	b := pl.blocks[pl.addRR%len(pl.blocks)]
	shard := pl.shardOf(b.id)
	b.mu.Lock()
	_, err := b.eng.Apply(lifetime.AddMachine{Name: e.Name, Capacity: e.Capacity.Clone(), Spec: e.Spec})
	if err != nil {
		b.mu.Unlock()
		pl.mu.Unlock()
		return err
	}
	pl.addRR++
	g := len(pl.machOwner)
	pl.machOwner = append(pl.machOwner, b.id)
	pl.machLocal = append(pl.machLocal, len(b.gMach))
	b.gMach = append(b.gMach, g)
	b.events++
	b.mu.Unlock()
	pl.mu.Unlock()
	pl.m.event(shard)
	return nil
}

// removeService retires a service, shifting every higher global index
// down by one — in the routing tables, in every block's reverse map,
// and in the cross-edge ledger — mirroring the single-engine
// RemoveService index contract.
func (pl *Pool) removeService(e lifetime.RemoveService) error {
	pl.mu.Lock()
	g := e.Service
	if g < 0 || g >= len(pl.svcOwner) {
		pl.mu.Unlock()
		return fmt.Errorf("fed: service %d out of range [0,%d)", g, len(pl.svcOwner))
	}
	b, ls := pl.blocks[pl.svcOwner[g]], pl.svcLocal[g]
	shard := pl.shardOf(b.id)
	if len(b.gSvc) < 2 {
		pl.mu.Unlock()
		return fmt.Errorf("fed: cannot remove service %d: it is the last service of compatibility block %d", g, b.id)
	}
	b.mu.Lock()
	_, err := b.eng.Apply(lifetime.RemoveService{Service: ls})
	if err != nil {
		b.mu.Unlock()
		pl.mu.Unlock()
		return err
	}
	b.gSvc = append(b.gSvc[:ls], b.gSvc[ls+1:]...)
	b.events++
	b.mu.Unlock()

	pl.svcOwner = append(pl.svcOwner[:g], pl.svcOwner[g+1:]...)
	pl.svcLocal = append(pl.svcLocal[:g], pl.svcLocal[g+1:]...)
	for i, owner := range pl.svcOwner {
		if owner == b.id && pl.svcLocal[i] > ls {
			pl.svcLocal[i]--
		}
	}
	for _, blk := range pl.blocks {
		blk.mu.Lock()
		for i, gs := range blk.gSvc {
			if gs > g {
				blk.gSvc[i] = gs - 1
			}
		}
		blk.mu.Unlock()
	}
	if len(pl.cross) > 0 {
		next := make(map[[2]int]float64, len(pl.cross))
		for k, w := range pl.cross {
			if k[0] == g || k[1] == g {
				pl.crossTotal -= w
				continue
			}
			a, bb := k[0], k[1]
			if a > g {
				a--
			}
			if bb > g {
				bb--
			}
			next[edgeKey(a, bb)] = w
		}
		pl.cross = next
	}
	pl.mu.Unlock()
	pl.m.event(shard)
	return nil
}

// pass is one block's Propose outcome inside a scatter-gather round.
type pass struct {
	b     *block
	shard int
	res   *incr.Result
}

// Result aggregates one scatter-gather re-optimization across every
// block, in the shape incr.Result reports for one engine.
type Result struct {
	// Mode is the highest path any block took (full > delta > noop);
	// EscalationReason is the first escalating block's reason.
	Mode             incr.Mode
	EscalationReason string
	// DirtySubproblems and TotalSubproblems sum the blocks' counts.
	DirtySubproblems int
	TotalSubproblems int
	// Noops/Deltas/Fulls count per-block passes by path taken.
	Noops, Deltas, Fulls int
	// EventsApplied sums the blocks' cumulative event counts.
	EventsApplied int
	// GainedAffinity sums per-block gains after commit; NormalizedGain
	// divides by the global denominator (block totals plus cross-block
	// weight).
	GainedAffinity float64
	NormalizedGain float64
	// BaselineGain weights each block's last full-solve gain by its
	// affinity, over the same global denominator.
	BaselineGain float64
	// Moves and Changed are the merged global diff; Plan is the merged
	// global migration plan (step i is the union of every accepted
	// block plan's step i — valid because blocks share no machines).
	Moves   int
	Changed []lifetime.PlacementDelta
	Plan    *migrate.Plan
	// FloorRejections counts block plans the global SLA-floor check
	// refused to commit (their blocks stay dirty and retry next pass);
	// RejectedBlocks lists them.
	FloorRejections  int
	RejectedBlocks   []int
	PartialMigration bool
	OutOfTime        bool
	// Stats combines every block's solver effort with solve.Stats.Merge.
	Stats solve.Stats
	// MergeElapsed is the gather+merge+floor-check portion of Elapsed.
	MergeElapsed time.Duration
	Elapsed      time.Duration
}

// Reoptimize runs one scatter-gather pass: every shard worker proposes
// per-block re-optimizations concurrently (noop blocks return
// immediately), the merge step recombines the per-block migration plans
// into one global plan, a single global SLA-floor check walks that plan
// against floors and capacities, and only then are the surviving block
// proposals committed. Block locks are held from Propose to commit, so
// no event can slip between a proposal and its adoption.
func (pl *Pool) Reoptimize(ctx context.Context) (*Result, error) {
	pl.solveMu.Lock()
	defer pl.solveMu.Unlock()
	start := time.Now()

	passes, crossTotal, unlockAll, err := pl.proposeAll(ctx)
	if err != nil {
		return nil, err
	}

	// Gather: merge plans and run the global floor check, then commit
	// the survivors.
	mergeStart := time.Now()
	rejected := pl.floorCheck(passes)
	res := &Result{RejectedBlocks: rejected, FloorRejections: len(rejected)}
	pl.m.rejection(len(rejected))
	isRejected := make(map[int]bool, len(rejected))
	for _, id := range rejected {
		isRejected[id] = true
	}
	var mergedSteps []migrate.Step
	var relocations int
	for _, pa := range passes {
		pl.m.reoptimize(pa.shard, pa.res.Mode.String())
		res.Mode = max(res.Mode, pa.res.Mode)
		if res.EscalationReason == "" {
			res.EscalationReason = pa.res.EscalationReason
		}
		res.DirtySubproblems += pa.res.DirtySubproblems
		res.TotalSubproblems += pa.res.TotalSubproblems
		res.Stats.Merge(pa.res.Stats)
		switch pa.res.Mode {
		case incr.ModeNoop:
			res.Noops++
		case incr.ModeDelta:
			res.Deltas++
		case incr.ModeFull:
			res.Fulls++
		}
		if pa.res.Mode == incr.ModeNoop || isRejected[pa.b.id] {
			continue
		}
		if err := pa.b.eng.CommitProposal(pa.res); err != nil {
			unlockAll()
			return nil, fmt.Errorf("fed: block %d commit: %w", pa.b.id, err)
		}
		res.Moves += pa.res.Moves
		for _, d := range pa.res.Changed {
			res.Changed = append(res.Changed, lifetime.PlacementDelta{
				Service: pa.b.gSvc[d.Service], Machine: pa.b.gMach[d.Machine],
				Before: d.Before, After: d.After,
			})
		}
		if pa.res.PartialMigration {
			res.PartialMigration = true
		}
		if pa.res.OutOfTime {
			res.OutOfTime = true
		}
		if pa.res.Plan != nil {
			relocations += pa.res.Plan.Relocations
			for i, step := range pa.res.Plan.Steps {
				for len(mergedSteps) <= i {
					mergedSteps = append(mergedSteps, nil)
				}
				for _, c := range step {
					mergedSteps[i] = append(mergedSteps[i], migrate.Command{
						Op: c.Op, Service: pa.b.gSvc[c.Service], Machine: pa.b.gMach[c.Machine],
					})
				}
			}
		}
	}
	if len(mergedSteps) > 0 {
		res.Plan = &migrate.Plan{Steps: mergedSteps, Moves: res.Moves, Relocations: relocations}
	}

	// Tally gains from the live (post-commit) block states.
	var gained, total, baseWeighted float64
	for _, pa := range passes {
		st := pa.b.eng.State()
		bp := st.Problem()
		gained += st.Assignment().GainedAffinity(bp)
		w := bp.Affinity.TotalWeight()
		total += w
		baseWeighted += pa.res.BaselineGain * w
		res.EventsApplied += pa.res.EventsApplied
	}
	unlockAll()

	res.GainedAffinity = gained
	if denom := total + crossTotal; denom > 0 {
		res.NormalizedGain = gained / denom
		res.BaselineGain = baseWeighted / denom
	}
	res.MergeElapsed = time.Since(mergeStart)
	res.Elapsed = time.Since(start)
	pl.m.merge(res.MergeElapsed)

	pl.jmu.Lock()
	pl.journal = append(pl.journal, lifetime.EntryJSON{
		Seq: uint64(len(pl.journal) + 1),
		EventJSON: lifetime.ToJSON(lifetime.PlanCommitted{
			Origin: "fed", Mode: "merge", Applied: true, Moves: res.Moves,
		}),
	})
	pl.jmu.Unlock()
	return res, nil
}

// proposeAll is the scatter phase of Reoptimize and Execute: each shard
// worker locks and proposes its blocks in id order, so at most Shards
// proposals (CPU work under a wall-clock budget) run at once. On success
// passes[i] is block i's proposal and every block stays locked until
// unlockAll; on error no lock is held.
func (pl *Pool) proposeAll(ctx context.Context) (passes []*pass, crossTotal float64, unlockAll func(), err error) {
	pl.mu.RLock()
	crossTotal = pl.crossTotal
	pl.mu.RUnlock()

	blocks := pl.blocks
	byShard := make([][]*block, pl.opts.Shards)
	for _, b := range blocks {
		s := pl.shardOf(b.id)
		byShard[s] = append(byShard[s], b)
	}
	passes = make([]*pass, len(blocks))
	locked := make([]bool, len(blocks))
	errs := make([]error, len(byShard))
	var wg sync.WaitGroup
	for s, list := range byShard {
		if len(list) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard int, list []*block) {
			defer wg.Done()
			for _, b := range list {
				b.mu.Lock()
				locked[b.id] = true
				res, err := b.eng.Propose(ctx)
				if err != nil {
					errs[shard] = fmt.Errorf("fed: block %d propose: %w", b.id, err)
					return
				}
				passes[b.id] = &pass{b: b, shard: shard, res: res}
			}
		}(s, list)
	}
	wg.Wait()
	unlockAll = func() {
		for i, b := range blocks {
			if locked[i] {
				b.mu.Unlock()
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			unlockAll()
			return nil, 0, nil, err
		}
	}
	return passes, crossTotal, unlockAll, nil
}

// floorCheck is the thin global invariant between local autonomy and
// commit: it walks the union of the proposed block plans step by step
// over the pooled cluster, tracking per-service alive counts against
// the SLA floor and per-machine load against capacity, and returns the
// ids of blocks whose plans would breach either. With disjoint blocks
// each already Simulate-verified by its planner this returns nothing —
// it exists to stop a miscomputed or stale plan from reaching the
// fabric, the same zero-by-construction stance the executor takes.
//
// Called with every block lock held, so block problems and assignments
// are stable; attribution is per block because commands only ever touch
// their own block's services and machines.
func (pl *Pool) floorCheck(passes []*pass) []int {
	minAlive := pl.opts.Engine.MinAlive
	if minAlive == 0 {
		minAlive = 0.75 // incr.Options default
	}
	type track struct {
		alive map[int]int         // local service -> alive count
		floor map[int]int         // local service -> min alive
		used  []cluster.Resources // local machine -> load
		bp    *cluster.Problem
	}
	tracks := make(map[int]*track)
	bad := make(map[int]bool)
	for _, pa := range passes {
		if pa == nil || pa.res.Plan == nil || pa.res.Mode == incr.ModeNoop {
			continue
		}
		st := pa.b.eng.State()
		bp, a := st.Problem(), st.Assignment()
		t := &track{
			alive: make(map[int]int, bp.N()),
			floor: make(map[int]int, bp.N()),
			used:  a.UsedResources(bp),
			bp:    bp,
		}
		target := make(map[int]int, bp.N())
		for s := 0; s < bp.N(); s++ {
			t.alive[s] = a.Placed(s)
			target[s] = t.alive[s]
		}
		for _, d := range pa.res.Changed {
			target[d.Service] += d.After - d.Before
		}
		for s := 0; s < bp.N(); s++ {
			f := int(minAlive * float64(bp.Services[s].Replicas))
			if target[s] < f {
				f = target[s]
			}
			if t.alive[s] < f {
				f = t.alive[s]
			}
			t.floor[s] = f
		}
		tracks[pa.b.id] = t
	}

	maxSteps := 0
	for _, pa := range passes {
		if pa != nil && pa.res.Plan != nil && len(pa.res.Plan.Steps) > maxSteps {
			maxSteps = len(pa.res.Plan.Steps)
		}
	}
	for i := 0; i < maxSteps; i++ {
		for _, pa := range passes {
			if pa == nil || pa.res.Plan == nil || bad[pa.b.id] || i >= len(pa.res.Plan.Steps) {
				continue
			}
			t := tracks[pa.b.id]
			for _, c := range pa.res.Plan.Steps[i] {
				req := t.bp.Services[c.Service].Request
				switch c.Op {
				case migrate.Delete:
					t.alive[c.Service]--
					t.used[c.Machine] = t.used[c.Machine].Sub(req)
				case migrate.Create:
					t.alive[c.Service]++
					t.used[c.Machine] = t.used[c.Machine].Add(req)
				}
			}
			// Verify after the whole step (commands within a step are
			// concurrent, matching migrate.Simulate).
			for _, c := range pa.res.Plan.Steps[i] {
				if t.alive[c.Service] < t.floor[c.Service] {
					bad[pa.b.id] = true
					break
				}
				if c.Op == migrate.Create && !t.used[c.Machine].Fits(t.bp.Machines[c.Machine].Capacity) {
					bad[pa.b.id] = true
					break
				}
			}
		}
	}
	if len(bad) == 0 {
		return nil
	}
	out := make([]int, 0, len(bad))
	for id := range bad {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
