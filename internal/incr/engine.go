package incr

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/core"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/obs"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/pool"
	"github.com/cloudsched/rasa/internal/selector"
	"github.com/cloudsched/rasa/internal/solve"
)

// Options tune the incremental engine.
type Options struct {
	// Budget bounds a full pipeline pass (escalations and the
	// bootstrap); default 2s.
	Budget time.Duration
	// DeltaBudget bounds the solver phase of a delta pass; default
	// Budget. Delta passes normally finish far inside it — the bound
	// exists so a pathological subproblem cannot stall the event loop.
	DeltaBudget time.Duration
	// DriftThreshold is the maximum tolerated loss of normalized gained
	// affinity relative to the last full solve before a delta pass
	// escalates to the full pipeline; default 0.05 (five points of
	// normalized affinity).
	DriftThreshold float64
	// MaxDirtyRatio escalates straight to a full solve when more than
	// this fraction of subproblems is dirty — at that point scoped
	// re-solves approach full-pipeline cost without its re-partitioning
	// benefit; default 0.5.
	MaxDirtyRatio float64
	// ForceFull makes every Propose run the full pipeline (a cluster
	// session's forceFull option: an operational escape hatch).
	ForceFull bool

	// The remaining fields forward to core.Optimize for full passes and
	// to the selector/pool machinery for delta passes.
	Strategy    core.Strategy
	Partition   partition.Options
	Policy      selector.Policy
	Parallelism int
	MinAlive    float64
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = 2 * time.Second
	}
	if o.DeltaBudget <= 0 {
		o.DeltaBudget = o.Budget
	}
	if o.DriftThreshold <= 0 {
		o.DriftThreshold = 0.05
	}
	if o.MaxDirtyRatio <= 0 {
		o.MaxDirtyRatio = 0.5
	}
	if o.Policy == nil {
		o.Policy = selector.Heuristic{}
	}
	if o.MinAlive == 0 {
		o.MinAlive = 0.75
	}
	// The same worker-count clamp core.Options.Normalize applies: the
	// delta path hands Parallelism straight to pool.SolveAll without
	// passing through core.Optimize.
	if no, err := (core.Options{Budget: o.Budget, Parallelism: o.Parallelism, Policy: o.Policy}).Normalize(); err == nil {
		o.Parallelism = no.Parallelism
	}
	return o
}

// Mode is the path a Propose call took.
type Mode int

// Propose paths.
const (
	// ModeNoop: nothing dirty, nothing solved.
	ModeNoop Mode = iota
	// ModeDelta: only dirty subproblems re-solved.
	ModeDelta
	// ModeFull: the full pipeline ran (bootstrap or escalation).
	ModeFull
)

func (m Mode) String() string {
	switch m {
	case ModeNoop:
		return "noop"
	case ModeDelta:
		return "delta"
	case ModeFull:
		return "full"
	}
	return "unknown"
}

// Escalation reasons (EscalationReason values and the obs counter
// label).
const (
	ReasonBootstrap  = "bootstrap"   // no full solve yet
	ReasonForced     = "force-full"  // Options.ForceFull
	ReasonDirtyRatio = "dirty-ratio" // dirty set beyond MaxDirtyRatio
	ReasonDrift      = "drift"       // delta result lost too much affinity
	ReasonPartition  = "partition-error"
)

// PlacementDelta is one changed placement cell: service s went from
// Before to After containers on machine m.
type PlacementDelta = lifetime.PlacementDelta

// Result is the outcome of one Propose call.
type Result struct {
	Mode Mode
	// Escalated reports that a full pass ran for any reason;
	// EscalationReason says which (empty for noop/delta).
	Escalated        bool
	EscalationReason string
	// DirtySubproblems / TotalSubproblems as seen at entry.
	DirtySubproblems int
	TotalSubproblems int
	// EventsApplied is the state's cumulative event count.
	EventsApplied int
	// GainedAffinity is the absolute gain of the proposed assignment;
	// NormalizedGain divides by the affinity graph's total weight;
	// BaselineGain is the normalized gain of the last full solve.
	GainedAffinity float64
	NormalizedGain float64
	BaselineGain   float64
	// Moves counts containers whose machine changed versus the
	// assignment at entry; Changed lists the differing cells.
	Moves   int
	Changed []PlacementDelta
	// Plan transitions the entry assignment to the proposed target (nil
	// for noop, or when planning was cut off).
	Plan             *migrate.Plan
	PartialMigration bool
	OutOfTime        bool
	Stats            solve.Stats
	Elapsed          time.Duration
}

// Engine drives incremental re-optimization over a State.
type Engine struct {
	st   *State
	opts Options
	m    *metrics
}

// New wraps st in an engine. reg may be nil (no metrics).
func New(st *State, opts Options, reg *obs.Registry) *Engine {
	return &Engine{st: st, opts: opts.withDefaults(), m: newMetrics(reg)}
}

// State returns the engine's state.
func (e *Engine) State() *State { return e.st }

// Apply forwards events to the state and counts them in the metrics.
func (e *Engine) Apply(events ...lifetime.Event) (int, error) {
	applied, err := e.st.Apply(events...)
	for i := 0; i < applied; i++ {
		e.m.event(events[i].Kind())
	}
	return applied, err
}

// Propose computes a target that brings the assignment back to
// optimized quality after a batch of events. It decides between three
// paths: nothing dirty — noop; a bounded dirty set — re-solve only the
// dirty subproblems and merge with the untouched remainder; otherwise,
// or when the delta result drifted too far below the last full solve's
// gained affinity, the full pipeline.
//
// The target is not adopted: the live assignment stays at its entry
// value and the pass is recorded in the log as a proposal (Applied
// false). The returned Plan transitions the entry assignment to the
// proposed target, and an executor (package exec) actuates it move by
// move, each confirmed move landing in the log as a MoveApplied event —
// so the state converges on the target exactly as far as the fabric
// actually got.
//
// A delta or full pass consumes the dirty set it re-solved. What the
// execution then fails to reach re-dirties through the log: MoveFailed,
// MachineDied and ReplanRequested fold back in. A caller that drops a
// proposal unexecuted appends ReplanRequested itself.
func (e *Engine) Propose(ctx context.Context) (*Result, error) {
	st := e.st
	st.mu.Lock()
	defer st.mu.Unlock()
	st.catchUpLocked()
	start := time.Now()
	p := st.log.Problem()
	cur := st.log.Assignment()

	dirtyCount := len(st.dirty)
	totalGroups := len(st.groups)

	reason := ""
	switch {
	case e.opts.ForceFull:
		reason = ReasonForced
	case !st.havePartition:
		reason = ReasonBootstrap
	case dirtyCount == 0 && !st.dirtyTrivial:
		res := &Result{
			Mode:             ModeNoop,
			TotalSubproblems: totalGroups,
			EventsApplied:    st.eventsApplied,
			BaselineGain:     st.baseGain,
			Elapsed:          time.Since(start),
		}
		res.GainedAffinity = cur.GainedAffinity(p)
		if total := p.Affinity.TotalWeight(); total > 0 {
			res.NormalizedGain = res.GainedAffinity / total
		}
		e.m.reoptimize(res.Mode)
		return res, nil
	case float64(dirtyCount) > e.opts.MaxDirtyRatio*float64(totalGroups):
		reason = ReasonDirtyRatio
	}
	if reason != "" {
		return e.full(ctx, start, reason, dirtyCount, totalGroups)
	}

	ratio := 0.0
	if totalGroups > 0 {
		ratio = float64(dirtyCount) / float64(totalGroups)
	}
	e.m.dirtyRatio(ratio)

	// Delta pass. Collect dirty groups in index order (determinism),
	// build their subproblems against the untouched remainder's
	// residual capacities, and re-solve only those.
	var dirtyGroups [][]int
	inDirty := make([]bool, p.N())
	for g := 0; g < totalGroups; g++ {
		if !st.dirty[g] {
			continue
		}
		dirtyGroups = append(dirtyGroups, st.groups[g])
		for _, s := range st.groups[g] {
			inDirty[s] = true
		}
	}
	stay := make([]int, 0, p.N())
	for s := 0; s < p.N(); s++ {
		if !inDirty[s] {
			stay = append(stay, s)
		}
	}

	subs, err := partition.AssignMachines(p, cur, dirtyGroups, stay)
	if err != nil {
		// Delta subproblem construction failed (should not happen on a
		// valid state); the full pipeline re-partitions from scratch.
		return e.full(ctx, start, ReasonPartition, dirtyCount, totalGroups)
	}
	selected := make([]pool.Algorithm, len(subs))
	for i, sp := range subs {
		selected[i] = e.opts.Policy.Decide(sp).Algorithm
	}
	results := pool.SolveAll(ctx, subs,
		func(i int) pool.Algorithm { return selected[i] },
		e.opts.DeltaBudget, e.opts.Parallelism)

	next := core.Settle(p, cur, &partition.Result{Subproblems: subs}, results)

	total := p.Affinity.TotalWeight()
	gain := next.GainedAffinity(p)
	norm := 0.0
	if total > 0 {
		norm = gain / total
	}
	if st.baseGain-norm > e.opts.DriftThreshold {
		// The scoped solve cannot recover enough of the affinity the
		// events destroyed (typically cross-subproblem edges the current
		// partition cannot collocate): re-partition with the full
		// pipeline. The delta result is discarded.
		return e.full(ctx, start, ReasonDrift, dirtyCount, totalGroups)
	}

	res := &Result{
		Mode:             ModeDelta,
		DirtySubproblems: dirtyCount,
		TotalSubproblems: totalGroups,
		EventsApplied:    st.eventsApplied,
		GainedAffinity:   gain,
		NormalizedGain:   norm,
		BaselineGain:     st.baseGain,
	}
	for _, r := range results {
		res.Stats.Merge(r.Stats)
	}
	res.OutOfTime = true
	for _, r := range results {
		if !r.OutOfTime {
			res.OutOfTime = false
			break
		}
	}
	if len(results) == 0 {
		res.OutOfTime = false
	}

	target := next
	if ctx.Err() == nil {
		plan, reached, partial, err := core.PlanMigration(ctx, p, cur, next, e.opts.MinAlive)
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Interrupted mid-planning: propose the target without a plan.
		case err != nil:
			return nil, fmt.Errorf("incr: %w", err)
		default:
			res.Plan, res.PartialMigration = plan, partial
			if reached != next {
				target = reached
				res.GainedAffinity = target.GainedAffinity(p)
				if total > 0 {
					res.NormalizedGain = res.GainedAffinity / total
				}
			}
		}
	}
	res.Moves = cluster.MoveCount(cur, target)
	res.Changed = diffPlacements(cur, target)
	if err := st.commitLocked(lifetime.PlanCommitted{Origin: "propose", Mode: "delta", Moves: res.Moves}); err != nil {
		return nil, err
	}
	st.dirty = make(map[int]bool)
	st.dirtyTrivial = false
	res.Elapsed = time.Since(start)
	e.m.reoptimize(res.Mode)
	e.m.deltaSolve(res.Elapsed)
	return res, nil
}

// full runs the complete pipeline under the state lock and installs the
// fresh partition as the new delta baseline.
func (e *Engine) full(ctx context.Context, start time.Time, reason string, dirtyCount, totalGroups int) (*Result, error) {
	st := e.st
	p := st.log.Problem()
	cur := st.log.Assignment()
	copts := core.Options{
		Budget:      e.opts.Budget,
		Strategy:    e.opts.Strategy,
		Partition:   e.opts.Partition,
		Policy:      e.opts.Policy,
		Parallelism: e.opts.Parallelism,
		MinAlive:    e.opts.MinAlive,
	}
	// Vary the sampling seed across runs so repeated escalations explore
	// different partitions instead of replaying one. The count comes
	// from the log's fold (full-pipeline commits), so a state resumed
	// from a replayed log re-solves with the same seed schedule an
	// uninterrupted run would have used.
	copts.Partition.Seed += int64(st.log.FullRuns() + 1)
	cres, err := core.Optimize(ctx, p, cur, copts)
	if err != nil {
		return nil, fmt.Errorf("incr: full pipeline: %w", err)
	}

	moves := cluster.MoveCount(cur, cres.Assignment)
	changed := diffPlacements(cur, cres.Assignment)
	if err := st.commitLocked(lifetime.PlanCommitted{Origin: "propose", Mode: "full", Reason: reason, Moves: moves}); err != nil {
		return nil, err
	}

	groups := make([][]int, 0, len(cres.Partition.Subproblems))
	for _, sp := range cres.Partition.Subproblems {
		groups = append(groups, append([]int(nil), sp.Services...))
	}
	st.setPartition(groups)

	total := p.Affinity.TotalWeight()
	norm := 0.0
	if total > 0 {
		norm = cres.GainedAffinity / total
	}
	st.baseGain = norm

	res := &Result{
		Mode:             ModeFull,
		Escalated:        true,
		EscalationReason: reason,
		DirtySubproblems: dirtyCount,
		TotalSubproblems: totalGroups,
		EventsApplied:    st.eventsApplied,
		GainedAffinity:   cres.GainedAffinity,
		NormalizedGain:   norm,
		BaselineGain:     norm,
		Moves:            moves,
		Changed:          changed,
		Plan:             cres.Plan,
		PartialMigration: cres.PartialMigration,
		OutOfTime:        cres.OutOfTime,
		Stats:            cres.Stats,
		Elapsed:          time.Since(start),
	}
	e.m.reoptimize(res.Mode)
	e.m.escalation(reason)
	return res, nil
}

// diffPlacements lists every (service, machine) cell where old and next
// differ.
func diffPlacements(old, next *cluster.Assignment) []PlacementDelta {
	var out []PlacementDelta
	for s := 0; s < next.N; s++ {
		seen := make(map[int]bool)
		for _, m := range old.MachinesOf(s) {
			seen[m] = true
			if b, a := old.Get(s, m), next.Get(s, m); b != a {
				out = append(out, PlacementDelta{Service: s, Machine: m, Before: b, After: a})
			}
		}
		for _, m := range next.MachinesOf(s) {
			if !seen[m] {
				out = append(out, PlacementDelta{Service: s, Machine: m, Before: 0, After: next.Get(s, m)})
			}
		}
	}
	return out
}
