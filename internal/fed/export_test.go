package fed

import (
	"context"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/exec"
)

// executeSequential is the reference composition Execute must match:
// one executor per block, each proposing and actuating in turn in
// block-id order, the reports folded in as they arrive. It returns the
// per-block reports beside the aggregate.
func (pl *Pool) executeSequential(ctx context.Context, fabFor func(blockID int, gMach []int, start *cluster.Assignment) exec.Fabric, opts exec.Options) (*exec.Report, []*exec.Report, error) {
	pl.solveMu.Lock()
	defer pl.solveMu.Unlock()

	pl.mu.RLock()
	crossTotal := pl.crossTotal
	pl.mu.RUnlock()

	agg := &exec.Report{Outcome: exec.OutcomeCompleted, MinHeadroom: -1}
	var reps []*exec.Report
	var totalAffinity float64
	for _, b := range pl.blocks {
		b.mu.Lock()
		start := b.eng.State().Assignment().Clone()
		rep, err := exec.New(b.eng, fabFor(b.id, append([]int(nil), b.gMach...), start), opts, nil).Run(ctx)
		if err != nil {
			b.mu.Unlock()
			return nil, nil, err
		}
		reps = append(reps, rep)
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
		for _, cp := range rep.Checkpoints {
			cp.Block = b.id
			agg.Checkpoints = append(agg.Checkpoints, cp)
		}
		agg.FloorViolations += rep.FloorViolations
		agg.EnvFloorDips += rep.EnvFloorDips
		agg.WastedMoves += rep.WastedMoves
		agg.PlannedGain += rep.PlannedGain
		agg.AchievedGain += rep.AchievedGain
		agg.Elapsed += rep.Elapsed
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
		b.mu.Unlock()
	}
	if denom := totalAffinity + crossTotal; denom > 0 {
		agg.NormPlanned = agg.PlannedGain / denom
		agg.NormAchieved = agg.AchievedGain / denom
	}
	agg.Final = pl.Assignment()
	return agg, reps, nil
}
