// Command rasad runs the production workflows of Section III: a
// CronJob-style control loop and, with -serve, a long-running
// optimization service. Given a snapshot it runs the workflow once and
// prints the migration plan; with -loop it drives the full production
// simulator and reports the latency/error improvements of Section V-F;
// with -serve it exposes the HTTP job API (POST /v1/jobs, GET
// /v1/jobs/{id}, the /v1/cluster session including its lifetime event
// log at GET /v1/cluster/log, /metrics, /healthz) until SIGTERM
// drains it.
//
// Usage:
//
//	rasad -snapshot m1.json            # one optimization pass + plan
//	rasad -loop -ticks 48              # simulated continuous operation
//	rasad -serve :8080                 # optimization-as-a-service daemon
//	rasad -loop -serve :8080           # simulation + live /metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/core"
	"github.com/cloudsched/rasa/internal/exec"
	"github.com/cloudsched/rasa/internal/fed"
	"github.com/cloudsched/rasa/internal/obs"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/prodsim"
	"github.com/cloudsched/rasa/internal/sched"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/workload"
)

func main() {
	snapPath := flag.String("snapshot", "", "cluster snapshot JSON (from rasagen or a data collector)")
	budget := flag.Duration("budget", 2*time.Second, "optimization budget per pass (default budget per job with -serve)")
	loop := flag.Bool("loop", false, "run the continuous production simulation instead of one pass")
	ticks := flag.Int("ticks", 48, "half-hour ticks to simulate with -loop")
	seed := flag.Int64("seed", 1, "random seed")
	verbose := flag.Bool("v", false, "print every migration command and per-subproblem solver stats")
	serveAddr := flag.String("serve", "", "serve the optimization HTTP API on this address (e.g. :8080); with -loop, serves live /metrics instead")
	execute := flag.Bool("execute", false, "with -loop, drive each reallocation through the migration executor instead of adopting it atomically")
	faultRate := flag.Float64("fault-rate", 0, "with -loop -execute, per-command failure probability of the simulated fabric")
	workers := flag.Int("workers", 2, "concurrent optimization jobs with -serve")
	queueDepth := flag.Int("queue", 64, "bounded job queue depth with -serve (overload returns 429)")
	maxBudget := flag.Duration("max-budget", 60*time.Second, "upper clamp on per-job budgets with -serve")
	shards := flag.Int("shards", fed.DefaultShards, "with -serve, the number of shard workers the /v1/cluster session deals compatibility blocks onto round-robin, i.e. how many block proposals run at once (each worker proposes its blocks in turn)")
	maxWait := flag.Duration("max-wait", 5*time.Minute, "upper clamp on ?wait= long-poll durations with -serve")
	policy := flag.String("policy", "heuristic", "with -serve, default algorithm-selection policy (heuristic, cg, mip, race, or gcn — the online-trained selector)")
	minConfidence := flag.Float64("min-confidence", 0.8, "with -serve -policy gcn, race CG-vs-MIP when the model's confidence falls below this (the race outcome retrains it)")
	flag.Parse()

	// SIGINT/SIGTERM cancel the context: in-flight solves return their
	// best incumbents and the pass reports what it achieved before dying.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *loop {
		runLoop(ctx, *budget, *ticks, *seed, *serveAddr, *execute, *faultRate)
		return
	}
	if *serveAddr != "" {
		runServe(ctx, *serveAddr, *workers, *queueDepth, *shards, *budget, *maxBudget, *maxWait, *policy, *minConfidence)
		return
	}
	runOnce(ctx, *snapPath, *budget, *seed, *verbose)
}

func runOnce(ctx context.Context, snapPath string, budget time.Duration, seed int64, verbose bool) {
	var (
		p   *snapshotCluster
		err error
	)
	p, err = loadOrGenerate(snapPath, seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("cluster: %d services, %d machines, %d affinity edges\n",
		p.problem.N(), p.problem.M(), p.problem.Affinity.M())
	total := p.problem.Affinity.TotalWeight()
	fmt.Printf("current gained affinity: %.4f\n", p.current.GainedAffinity(p.problem)/total)

	res, err := core.Optimize(ctx, p.problem, p.current, core.Options{
		Budget:    budget,
		Partition: partition.Options{Seed: seed},
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("optimized gained affinity: %.4f (improvement %.1f%%)\n",
		res.GainedAffinity/total, 100*res.ImprovementRatio())
	fmt.Printf("subproblems: %d (trivial services: %d), elapsed %s\n",
		len(res.Partition.Subproblems), len(res.Partition.Trivial), res.Elapsed.Round(time.Millisecond))
	fmt.Printf("solver effort: %d simplex pivots, %d B&B nodes, %d incumbents, %d columns, stop=%s\n",
		res.Stats.SimplexIters, res.Stats.Nodes, res.Stats.Incumbents, res.Stats.Columns, res.Stats.Stop)
	if res.Plan != nil {
		fmt.Printf("migration plan: %d steps, %d container moves\n", len(res.Plan.Steps), res.Plan.Moves)
	} else {
		fmt.Println("migration plan: skipped (pass interrupted)")
	}
	if verbose {
		for i, sr := range res.SubResults {
			fmt.Printf("  subproblem %d: %s obj=%.4f stop=%s pivots=%d nodes=%d columns=%d pricing-rounds=%d wall=%s\n",
				i, sr.Algorithm, sr.Objective, sr.Stats.Stop, sr.Stats.SimplexIters,
				sr.Stats.Nodes, sr.Stats.Columns, sr.Stats.PricingRounds,
				sr.Stats.Wall.Round(time.Millisecond))
		}
		if res.Plan != nil {
			for i, step := range res.Plan.Steps {
				fmt.Printf("  step %d: %v\n", i, step)
			}
		}
	}
}

func runLoop(ctx context.Context, budget time.Duration, ticks int, seed int64, addr string, execute bool, faultRate float64) {
	// The loop publishes every optimization pass's solver stats through
	// the same registry shape the -serve daemon exposes; with -serve the
	// series are scrapeable live at /metrics while the simulation runs.
	reg := obs.NewRegistry()
	collector := obs.NewSolveCollector(reg, "rasa")
	passes := reg.Counter("rasa_loop_passes_total", "RASA optimization passes run by the control loop.")
	gain := reg.Gauge("rasa_loop_gained_affinity", "Gained affinity after the latest optimization pass.")
	stopMetrics := serveMetrics(addr, reg)
	defer stopMetrics()

	cfg := prodsim.Config{
		Workload: workload.Preset{
			Name: "rasad", Services: 120, Containers: 700, Machines: 30,
			Beta: 1.6, AffinityFraction: 0.6, Zones: 1, Utilization: 0.55, Seed: seed,
		},
		Ticks:         ticks,
		OptimizeEvery: 1,
		Budget:        budget,
		ChurnServices: 3,
		Seed:          seed,
		OnOptimize: func(tick int, res *core.Result) {
			passes.Inc()
			gain.Set(res.GainedAffinity)
			collector.Observe(res.Stats)
		},
	}
	var execRuns, execCommands, execRetries, execReplans, execFloor int
	if execute {
		cfg.Execute = true
		cfg.ExecFaultRate = faultRate
		cfg.OnExecute = func(tick int, rep *exec.Report) {
			execRuns++
			execCommands += rep.Executed
			execRetries += rep.Retries
			execReplans += rep.Replans
			execFloor += rep.FloorViolations
		}
	}
	cmp, err := prodsim.RunAll(ctx, cfg)
	if err != nil {
		fail(err)
	}
	wo, wi, co := cmp.Without.MeanWeighted(), cmp.With.MeanWeighted(), cmp.Collocated.MeanWeighted()
	fmt.Printf("%-16s %12s %12s\n", "scenario", "latency(ms)", "error rate")
	fmt.Printf("%-16s %12.3f %12.5f\n", "WITHOUT RASA", wo.Latency, wo.ErrorRate)
	fmt.Printf("%-16s %12.3f %12.5f\n", "WITH RASA", wi.Latency, wi.ErrorRate)
	fmt.Printf("%-16s %12.3f %12.5f\n", "ONLY COLLOCATED", co.Latency, co.ErrorRate)
	fmt.Printf("latency improvement: %.2f%%, error improvement: %.2f%%\n",
		100*(wo.Latency-wi.Latency)/wo.Latency,
		100*(wo.ErrorRate-wi.ErrorRate)/wo.ErrorRate)
	fmt.Printf("published %d optimization passes to the metrics registry\n", int(passes.Value()))
	if execute {
		fmt.Printf("executor: %d runs, %d commands, %d retries, %d re-plans, %d SLA floor violations (fault rate %.0f%%)\n",
			execRuns, execCommands, execRetries, execReplans, execFloor, 100*faultRate)
	}
}

type snapshotCluster struct {
	problem *cluster.Problem
	current *cluster.Assignment
}

func loadOrGenerate(path string, seed int64) (*snapshotCluster, error) {
	if path == "" {
		c, err := workload.Generate(workload.Preset{
			Name: "default", Services: 200, Containers: 1100, Machines: 45,
			Beta: 1.6, AffinityFraction: 0.6, Zones: 2, Utilization: 0.55, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		return &snapshotCluster{problem: c.Problem, current: c.Original}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, a, err := snapshot.Load(f)
	if err != nil {
		return nil, err
	}
	if a == nil {
		// No recorded deployment: bootstrap with the ORIGINAL scheduler.
		a, err = sched.Original(p, seed)
		if err != nil {
			return nil, err
		}
	}
	return &snapshotCluster{problem: p, current: a}, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rasad: %v\n", err)
	os.Exit(1)
}
