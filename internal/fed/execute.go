package fed

import (
	"context"
	"sync"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/exec"
)

// Execute drives one migration executor per block in two phases.
// Blocks first propose on the shard workers, as in Reoptimize, so at
// most Shards proposals share the cores. Then every block with a plan
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
// aggregate is bit-identical to running blocks one after another:
// counters sum, Outcome is completed only when every block completed,
// Elapsed is the actuation's wall time and Final the assembled global
// assignment. Block executors publish into the pool's registry, one
// rasa_exec_runs_total run per block.
func (pl *Pool) Execute(ctx context.Context, fabFor func(blockID int, gMach []int, start *cluster.Assignment) exec.Fabric, opts exec.Options) (*exec.Report, error) {
	agg, _, err := pl.execute(ctx, fabFor, opts)
	return agg, err
}

// execute is Execute returning the per-block reports as well.
func (pl *Pool) execute(ctx context.Context, fabFor func(blockID int, gMach []int, start *cluster.Assignment) exec.Fabric, opts exec.Options) (*exec.Report, []*exec.Report, error) {
	pl.solveMu.Lock()
	defer pl.solveMu.Unlock()

	passes, crossTotal, unlockAll, err := pl.proposeAll(ctx)
	if err != nil {
		return nil, nil, err
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

	agg := &exec.Report{Outcome: exec.OutcomeCompleted, MinHeadroom: -1}
	var totalAffinity float64
	for i, rep := range reps {
		b := passes[i].b
		totalAffinity += b.eng.State().Problem().Affinity.TotalWeight()
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
	}
	pl.m.execHeadroom(agg.MinHeadroom)
	agg.Final = pl.Assignment()
	return agg, reps, nil
}
