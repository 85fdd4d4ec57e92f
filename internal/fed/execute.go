package fed

import (
	"context"
	"sync"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/exec"
	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/solve"
)

// Result is one execution over every block: the blocks' proposals
// aggregated in the shape incr.Result reports for one engine, and the
// blocks' execution reports aggregated into one.
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
	// GainedAffinity sums per-block gains after execution;
	// NormalizedGain divides by the global denominator (block totals
	// plus cross-block weight).
	GainedAffinity float64
	NormalizedGain float64
	// BaselineGain weights each block's last full-solve gain by its
	// affinity, over the same global denominator.
	BaselineGain float64
	// Moves and Changed are the proposals' global diff; Plan is the
	// global migration plan (step i is the union of every block plan's
	// step i — valid because blocks share no machines).
	Moves            int
	Changed          []lifetime.PlacementDelta
	Plan             *migrate.Plan
	PartialMigration bool
	OutOfTime        bool
	// Stats combines every block's solver effort with solve.Stats.Merge.
	Stats solve.Stats
	// Report aggregates the block executors' reports.
	Report *exec.Report
	// Elapsed covers proposals and actuation; Report.Elapsed is the
	// actuation alone.
	Elapsed time.Duration
}

// Execute drives one migration executor per block in two phases.
// Blocks first propose on the shard workers, so at most Shards
// proposals share the cores. Then every block with a plan
// actuates at once, one goroutine per block (bounded by the block
// count; actuation waits on fabrics, not cores), against the fabric
// fabFor builds for it; fabFor is called from one goroutine, in
// block-id order. The fabric sees local indices; gMach lets the caller
// translate machine-scoped fault schedules. An execution thus waits
// for its slowest block, not the sum of all blocks. This is safe
// because a command names one block's service and one block's machine,
// so per-block floor and capacity validity is global validity
// (DESIGN.md §12). Each block lock is held from propose through
// actuation. A failed propose actuates no block; after a failed
// actuation the other blocks finish and the lowest-id error returns.
//
// Reports fold in block-id order once every block has finished, so the
// aggregate report is bit-identical to running blocks one after
// another: counters sum, Checkpoints carry their block's id, Outcome is
// completed only when every block completed, Elapsed is the actuation's
// wall time and Final the assembled global assignment. Block executors
// publish into the pool's registry, one rasa_exec_runs_total run per
// block.
func (pl *Pool) Execute(ctx context.Context, fabFor func(blockID int, gMach []int, start *cluster.Assignment) exec.Fabric, opts exec.Options) (*Result, error) {
	res, _, err := pl.execute(ctx, fabFor, opts)
	return res, err
}

// execute is Execute returning the per-block reports as well.
func (pl *Pool) execute(ctx context.Context, fabFor func(blockID int, gMach []int, start *cluster.Assignment) exec.Fabric, opts exec.Options) (*Result, []*exec.Report, error) {
	pl.solveMu.Lock()
	defer pl.solveMu.Unlock()
	begin := time.Now()

	passes, crossTotal, unlockAll, err := pl.proposeAll(ctx)
	if err != nil {
		return nil, nil, err
	}
	for _, pa := range passes {
		pl.m.reoptimize(pa.shard, pa.res.Mode.String())
	}
	start := time.Now()
	reps := make([]*exec.Report, len(passes))
	errs := make([]error, len(passes))
	var wg sync.WaitGroup
	for i, pa := range passes {
		b := pa.b
		from := b.eng.State().Assignment().Clone() // Propose left the state put
		ex := exec.New(b.eng, fabFor(b.id, append([]int(nil), b.gMach...), from), opts, pl.reg)
		run := func() { reps[i], errs[i] = ex.RunProposal(ctx, from, pa.res) }
		if pa.res.Plan == nil {
			run() // a noop completes at once
			continue
		}
		wg.Add(1)
		go func() { defer wg.Done(); run() }()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			unlockAll()
			return nil, nil, err
		}
	}

	res := &Result{Report: &exec.Report{Outcome: exec.OutcomeCompleted, MinHeadroom: -1}}
	agg := res.Report
	var totalAffinity, baseWeighted float64
	for i, rep := range reps {
		pa := passes[i]
		b := pa.b
		res.addProposal(pa)
		st := b.eng.State()
		bp := st.Problem()
		w := bp.Affinity.TotalWeight()
		totalAffinity += w
		baseWeighted += pa.res.BaselineGain * w
		res.GainedAffinity += st.Assignment().GainedAffinity(bp)

		agg.PlannedMoves += rep.PlannedMoves
		agg.Steps += rep.Steps
		agg.Commands += rep.Commands
		agg.Executed += rep.Executed
		agg.Failed += rep.Failed
		agg.Skipped += rep.Skipped
		agg.Retries += rep.Retries
		agg.BackoffTotal += rep.BackoffTotal
		agg.Replans += rep.Replans
		agg.ReplanReasons = append(agg.ReplanReasons, rep.ReplanReasons...)
		for _, cp := range rep.Checkpoints {
			cp.Block = b.id
			agg.Checkpoints = append(agg.Checkpoints, cp)
		}
		agg.FloorViolations += rep.FloorViolations
		agg.EnvFloorDips += rep.EnvFloorDips
		agg.WastedMoves += rep.WastedMoves
		agg.PlannedGain += rep.PlannedGain
		agg.AchievedGain += rep.AchievedGain
		for _, lm := range rep.DeadMachines {
			agg.DeadMachines = append(agg.DeadMachines, b.gMach[lm])
		}
		if rep.MinHeadroom >= 0 && (agg.MinHeadroom < 0 || rep.MinHeadroom < agg.MinHeadroom) {
			agg.MinHeadroom = rep.MinHeadroom
		}
		switch rep.Outcome {
		case exec.OutcomeAborted:
			agg.Outcome = exec.OutcomeAborted
			if agg.Err == "" {
				agg.Err = rep.Err
			}
		case exec.OutcomeCancelled:
			if agg.Outcome != exec.OutcomeAborted {
				agg.Outcome = exec.OutcomeCancelled
			}
		}
	}
	unlockAll()
	agg.Elapsed = time.Since(start)
	if denom := totalAffinity + crossTotal; denom > 0 {
		agg.NormPlanned = agg.PlannedGain / denom
		agg.NormAchieved = agg.AchievedGain / denom
		res.NormalizedGain = res.GainedAffinity / denom
		res.BaselineGain = baseWeighted / denom
	}
	pl.m.execHeadroom(agg.MinHeadroom)
	agg.Final = pl.Assignment()
	res.Elapsed = time.Since(begin)
	return res, reps, nil
}

// addProposal folds one block's proposal into the aggregate, translating
// its placements and plan commands to global indices.
func (res *Result) addProposal(pa *pass) {
	r, b := pa.res, pa.b
	res.Mode = max(res.Mode, r.Mode)
	if res.EscalationReason == "" {
		res.EscalationReason = r.EscalationReason
	}
	res.DirtySubproblems += r.DirtySubproblems
	res.TotalSubproblems += r.TotalSubproblems
	res.EventsApplied += r.EventsApplied
	res.Stats.Merge(r.Stats)
	switch r.Mode {
	case incr.ModeNoop:
		res.Noops++
	case incr.ModeDelta:
		res.Deltas++
	case incr.ModeFull:
		res.Fulls++
	}
	res.Moves += r.Moves
	res.PartialMigration = res.PartialMigration || r.PartialMigration
	res.OutOfTime = res.OutOfTime || r.OutOfTime
	for _, d := range r.Changed {
		res.Changed = append(res.Changed, lifetime.PlacementDelta{
			Service: b.gSvc[d.Service], Machine: b.gMach[d.Machine],
			Before: d.Before, After: d.After,
		})
	}
	if r.Plan == nil {
		return
	}
	if res.Plan == nil {
		res.Plan = &migrate.Plan{}
	}
	res.Plan.Moves += r.Plan.Moves
	res.Plan.Relocations += r.Plan.Relocations
	for i, step := range r.Plan.Steps {
		if i == len(res.Plan.Steps) {
			res.Plan.Steps = append(res.Plan.Steps, nil)
		}
		for _, c := range step {
			res.Plan.Steps[i] = append(res.Plan.Steps[i], migrate.Command{
				Op: c.Op, Service: b.gSvc[c.Service], Machine: b.gMach[c.Machine],
			})
		}
	}
}
