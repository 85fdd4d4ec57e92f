// Package record captures a cluster lifetime — synthetic churn, the
// incremental engine's plan proposals, and the executor's fault-laden
// actuation of them — as a rasa-lifetime-trace/1 artifact. The trace
// carries the starting snapshot and every event the lifetime log
// accumulated, so lifetime.Replay can rebuild the exact end state
// without re-running a single solve or fabric command: recording is
// the expensive run, replay is a pure fold.
package record

import (
	"context"
	"fmt"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/exec"
	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/workload"
	"github.com/cloudsched/rasa/internal/workload/churn"
)

// Config tunes one recorded lifetime.
type Config struct {
	// Preset is the workload to generate (required).
	Preset workload.Preset
	// Ticks is the number of churn → propose → execute rounds (default
	// 6); PerTick is the churn events applied per round (default 4).
	Ticks   int
	PerTick int
	// Budget bounds each engine solve (default 2s). The recording is
	// deterministic for a given Seed only while every solve converges
	// before its deadline: a solve cut off by the wall clock returns
	// whatever incumbent it reached, which depends on machine speed and
	// load. T2 at seed 3 with faults and a death has given two different
	// traces at 2s and identical ones at 20s.
	Budget time.Duration
	// FaultRate is the fabric's per-command failure probability.
	FaultRate float64
	// DeathTick, when non-negative, kills the most-loaded machine
	// halfway through that tick's plan (default -1: no death).
	DeathTick int
	// Seed drives churn sampling, fabric faults, and backoff jitter.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Ticks <= 0 {
		c.Ticks = 6
	}
	if c.PerTick <= 0 {
		c.PerTick = 4
	}
	if c.Budget <= 0 {
		c.Budget = 2 * time.Second
	}
	if c.DeathTick == 0 {
		// The zero value means "unset"; explicit tick-0 deaths are not
		// expressible, which no caller needs — tick 0 is the bootstrap.
		c.DeathTick = -1
	}
	return c
}

// Record runs one cluster lifetime and exports its event log. All
// moving parts are seeded and single-threaded (Parallelism 1), so two
// Record calls with equal configs produce byte-identical traces,
// provided no solve hits its Budget deadline (see Config.Budget).
func Record(ctx context.Context, cfg Config) (*lifetime.Trace, error) {
	cfg = cfg.withDefaults()
	c, err := workload.Generate(cfg.Preset)
	if err != nil {
		return nil, fmt.Errorf("record: generate: %w", err)
	}
	// Round-trip the starting state through the snapshot that ships in
	// the trace, so the recording folds from bit-identical ground truth
	// to what Replay will reconstruct.
	snap := snapshot.FromCluster(c.Problem, c.Original)
	p, a, err := snap.ToCluster()
	if err != nil {
		return nil, fmt.Errorf("record: snapshot round-trip: %w", err)
	}
	st, err := incr.NewState(p, a)
	if err != nil {
		return nil, fmt.Errorf("record: state: %w", err)
	}
	eng := incr.New(st, incr.Options{
		Budget:      cfg.Budget,
		MinAlive:    0.75,
		Parallelism: 1,
	}, nil)
	log := st.Log()

	batches, err := churn.Generate(c, churn.Config{
		Events:      cfg.Ticks * cfg.PerTick,
		PerTick:     cfg.PerTick,
		Seed:        cfg.Seed*31 + 7,
		ServiceOnly: true,
	})
	if err != nil {
		return nil, fmt.Errorf("record: churn: %w", err)
	}

	sum := &lifetime.Summary{Ticks: cfg.Ticks}
	for tick := 0; tick < cfg.Ticks; tick++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		log.AdvanceTick()
		if batch := batches[tick]; len(batch) > 0 {
			if _, err := st.Apply(batch...); err != nil {
				return nil, fmt.Errorf("record: tick %d churn: %w", tick, err)
			}
			sum.Events += len(batch)
		}

		rres, err := eng.Propose(ctx)
		if err != nil {
			return nil, fmt.Errorf("record: tick %d propose: %w", tick, err)
		}
		sum.Reoptimizes++
		if rres.Plan == nil || len(rres.Plan.Steps) == 0 {
			continue
		}

		from := st.Assignment().Clone()
		var fab exec.Fabric
		if cfg.FaultRate == 0 && tick != cfg.DeathTick {
			fab = exec.NewInstantFabric(from.Clone())
		} else {
			fc := exec.FaultConfig{
				FailureProb: cfg.FaultRate,
				Seed:        cfg.Seed*131 + int64(tick)*17,
			}
			if tick == cfg.DeathTick {
				commands := 0
				for _, s := range rres.Plan.Steps {
					commands += len(s)
				}
				fc.Deaths = []exec.MachineDeath{{
					Machine:       mostLoadedMachine(from),
					AfterCommands: commands / 2,
				}}
			}
			fab = exec.NewFaultFabric(from.Clone(), fc)
		}
		ex := exec.New(eng, fab, exec.Options{
			MinAlive:    0.75,
			Parallelism: 1,
			Seed:        cfg.Seed + int64(tick)*613,
		}, nil)
		rep, err := ex.Execute(ctx, from, rres.Plan)
		if err != nil {
			return nil, fmt.Errorf("record: tick %d execute: %w", tick, err)
		}
		sum.Replans += rep.Replans
		sum.Executed += rep.Executed
		sum.Failed += rep.Failed
		sum.Skipped += rep.Skipped
		sum.FloorViolations += rep.FloorViolations
		sum.EnvFloorDips += rep.EnvFloorDips
		sum.Deaths += len(rep.DeadMachines)
	}
	return log.Export(snap, cfg.Seed, cfg.Preset.Name, sum), nil
}

// mostLoadedMachine picks the machine hosting the most containers —
// the death target that maximizes mid-plan divergence.
func mostLoadedMachine(a *cluster.Assignment) int {
	best, bestC := 0, -1
	for m, scs := range a.PerMachine() {
		total := 0
		for _, sc := range scs {
			total += sc.Count
		}
		if total > bestC {
			best, bestC = m, total
		}
	}
	return best
}
