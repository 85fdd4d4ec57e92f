package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/cloudsched/rasa"
	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/core"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/pool"
	"github.com/cloudsched/rasa/internal/sched"
	"github.com/cloudsched/rasa/internal/selector"
	"github.com/cloudsched/rasa/internal/solve"
	"github.com/cloudsched/rasa/internal/workload"
)

// plan-batch: one closed-loop caller of rasa.OptimizeContext over a
// seed-derived rotation of small clusters, with a budget far above what
// any pass needs. Every subproblem must stop on its own limit; a
// deadline stop fails the op.

// planBudget is far above the slowest pass of the rotation, so passes
// are work-bound.
const planBudget = 60 * time.Second

// planTailQ is plan-batch's fixed tail percentile: a 30 s run completes
// 150 or more passes, so p90 leaves 15 or more beyond it.
const planTailQ = 0.90

// planShapes are the rotation's cluster shapes: T3-, M1- and T1-like
// presets of the workload generator.
var planShapes = map[string]workload.Preset{
	"T3": {Name: "T3", Services: 80, Containers: 400, Machines: 16, Beta: 1.9, AffinityFraction: 0.7, Zones: 1, Utilization: 0.5},
	"T1": {Name: "T1", Services: 120, Containers: 700, Machines: 30, Beta: 1.7, AffinityFraction: 0.6, Zones: 1, Utilization: 0.5},
	"M1": {Name: "M1", Services: 590, Containers: 2564, Machines: 98, Beta: 1.6, AffinityFraction: 0.55, Zones: 2, Utilization: 0.55},
}

// planCatalogue lists, per shape, the generator seeds the rotation
// runs: seeds whose passes stop with every subproblem optimal, within
// 13–296 ms (T3), 32–761 ms (T1) and 204–850 ms (M1) on a 2-core host.
// Random seeds of these shapes have heavy-tailed branch-and-bound work —
// 39 ms to 42 s for T3 — so only vetted seeds keep the workload
// work-bound, and running the whole catalogue in every run keeps the
// work of a run independent of the workload seed.
var planCatalogue = []struct {
	shape string
	seeds []int64
}{
	{"T3", []int64{4, 5, 7, 9, 10, 11, 12, 13, 16, 21, 25, 26, 30, 32, 34, 35, 41, 45, 46, 48, 49, 59, 66, 67, 68}},
	{"T1", []int64{3, 5, 6, 7, 8, 9, 10, 11, 13, 17, 18, 21, 22, 24, 25, 26, 29, 32, 33, 34, 36, 37, 38, 39}},
	{"M1", []int64{3, 5, 6, 8, 9, 13, 14}},
}

// planInput is one cluster of the rotation plus the outcome of its first
// pass, which every later pass on it must repeat exactly.
type planInput struct {
	name    string
	p       *cluster.Problem
	current *cluster.Assignment
	first   *rasa.Result
}

// planInputs generates the catalogue in catalogue order.
func planInputs() ([]*planInput, error) {
	var out []*planInput
	for _, cat := range planCatalogue {
		for _, cs := range cat.seeds {
			ps := planShapes[cat.shape]
			ps.Seed = cs
			c, err := workload.Generate(ps)
			if err != nil {
				return nil, fmt.Errorf("generate %s: %w", ps.Name, err)
			}
			out = append(out, &planInput{name: fmt.Sprintf("%s-%d", ps.Name, ps.Seed), p: c.Problem, current: c.Original})
		}
	}
	return out, nil
}

func planOptions() rasa.Options {
	return rasa.Options{Budget: planBudget, Parallelism: runtime.GOMAXPROCS(0)}
}

func runPlanBatch(cfg config, env map[string]any) (*result, error) {
	ctx := context.Background()
	var inputs []*planInput
	var setup []float64
	for r := 0; r < setupRepeats; r++ {
		start := time.Now()
		in, err := planInputs()
		if err != nil {
			return nil, err
		}
		// Warm-up: one untimed pass on the catalogue's last (M1) cluster.
		w := in[len(in)-1]
		if _, err := rasa.OptimizeContext(ctx, w.p, w.current, planOptions()); err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		inputs = in
	}
	// The rotation order is the only thing the seed draws.
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	env["inputs"] = len(inputs)
	env["tail_percentile"] = planTailQ * 100

	var t tally
	var gains, moves []float64
	var acc solverAcc
	var tracedMS, untracedMS float64
	perInput := make(map[string][]float64)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	start := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		in := inputs[i%len(inputs)]
		opStart := time.Now()
		res, err := rasa.OptimizeContext(ctx, in.p, in.current, planOptions())
		lat := time.Since(opStart)
		o, detail := checkPass(in, res, err)
		if cfg.trace && o == opOK {
			untracedMS += ms(lat)
			tStart := time.Now()
			tres, terr := tracedOptimize(ctx, in.p, in.current, planOptions(), &acc)
			tracedMS += ms(time.Since(tStart))
			if terr != nil {
				o, detail = opCheck, fmt.Sprintf("%s: traced pipeline: %v", in.name, terr)
			} else if err := samePass(tres, res); err != nil {
				o, detail = opCheck, fmt.Sprintf("%s: traced pipeline differs from OptimizeContext: %v", in.name, err)
			}
		}
		t.record(o, ms(lat), detail)
		perInput[in.name] = append(perInput[in.name], ms(lat))
		if o == opOK {
			gains = append(gains, res.GainedAffinity/in.p.Affinity.TotalWeight())
			moves = append(moves, float64(res.Plan.Moves))
		}
	}
	elapsed := time.Since(start)
	env["ops"] = t.attempted()
	inputMS := make(map[string]float64, len(perInput))
	for name, xs := range perInput {
		inputMS[name] = median(xs)
	}
	env["input_p50_ms"] = inputMS

	if cfg.trace {
		vals := acc.values()
		vals["trace.overhead_share"] = share(tracedMS-untracedMS, untracedMS)
		return finish(&t, layerMetrics(vals), env), nil
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	m, err := endToEnd(&t, planTailQ, elapsed, setup, gains, moves, rss, env)
	if err != nil {
		return nil, err
	}
	return finish(&t, m, env), nil
}

// checkPass classifies one plan-batch pass: every subproblem must stop on
// its own limit, the assignment must satisfy every constraint, the plan
// must replay to it, and a repeated input must repeat its first pass's
// gain, moves and solver work exactly.
func checkPass(in *planInput, res *rasa.Result, err error) (outcome, string) {
	if err != nil {
		return opError, fmt.Sprintf("%s: %v", in.name, err)
	}
	if res.Stats.Stop != solve.Optimal {
		return opDeadline, fmt.Sprintf("%s: pass stopped %s", in.name, res.Stats.Stop)
	}
	for i, sr := range res.SubResults {
		if sr.Stats.Stop == solve.Deadline || sr.OutOfTime {
			return opDeadline, fmt.Sprintf("%s: subproblem %d stopped %s", in.name, i, sr.Stats.Stop)
		}
	}
	if err := checkResult(in.p, in.current, res.Assignment, res.Plan); err != nil {
		return opCheck, fmt.Sprintf("%s: %v", in.name, err)
	}
	if in.first == nil {
		in.first = res
		return opOK, ""
	}
	if err := samePass(res, in.first); err != nil {
		return opCheck, fmt.Sprintf("%s: not repeatable: %v", in.name, err)
	}
	return opOK, ""
}

// checkResult verifies an assignment against every constraint of the
// problem (SLA included) and replays the plan from current to it.
func checkResult(p *cluster.Problem, current, got *cluster.Assignment, plan *migrate.Plan) error {
	if v := got.Check(p, true); len(v) > 0 {
		return fmt.Errorf("assignment violates %d constraints, first: %s", len(v), v[0])
	}
	if plan == nil {
		return errors.New("no migration plan")
	}
	reached, err := rasa.SimulateMigration(p, current, plan, 0)
	if err != nil {
		return fmt.Errorf("plan replay: %w", err)
	}
	if !sameAssignment(reached, got) {
		return errors.New("plan replays to a different assignment")
	}
	return nil
}

func sameAssignment(a, b *cluster.Assignment) bool {
	same := true
	count := func(x, y *cluster.Assignment) {
		x.EachPlacement(func(s, m, c int) {
			if y.Get(s, m) != c {
				same = false
			}
		})
	}
	count(a, b)
	count(b, a)
	return same
}

// samePass reports how two passes on one input differ in assignment,
// gain, moves or solver work; nil when identical.
func samePass(a, b *rasa.Result) error {
	switch {
	case !sameAssignment(a.Assignment, b.Assignment):
		return errors.New("assignment")
	case a.GainedAffinity != b.GainedAffinity:
		return fmt.Errorf("gain %v vs %v", a.GainedAffinity, b.GainedAffinity)
	case a.Plan.Moves != b.Plan.Moves || len(a.Plan.Steps) != len(b.Plan.Steps):
		return fmt.Errorf("plan %d moves/%d steps vs %d/%d", a.Plan.Moves, len(a.Plan.Steps), b.Plan.Moves, len(b.Plan.Steps))
	case a.Stats.SimplexIters != b.Stats.SimplexIters || a.Stats.Nodes != b.Stats.Nodes ||
		a.Stats.Columns != b.Stats.Columns || a.Stats.PricingRounds != b.Stats.PricingRounds:
		return fmt.Errorf("solver work %d pivots/%d nodes/%d columns vs %d/%d/%d",
			a.Stats.SimplexIters, a.Stats.Nodes, a.Stats.Columns, b.Stats.SimplexIters, b.Stats.Nodes, b.Stats.Columns)
	}
	return nil
}

// minSolveBudget mirrors the solver-phase floor of the core pipeline.
const minSolveBudget = 25 * time.Millisecond

// tracedOptimize runs the optimization pipeline from the layers' public
// calls — partition, per-subproblem decision, parallel solve, merge with
// SLA reconciliation, migration planning — timing each layer into acc.
// It performs the same steps as core.Optimize, so its result must equal
// rasa.OptimizeContext's on the same input.
func tracedOptimize(ctx context.Context, p *cluster.Problem, current *cluster.Assignment, opts core.Options, acc *solverAcc) (*core.Result, error) {
	start := time.Now()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}

	t := time.Now()
	pres, err := partition.Multistage(ctx, p, current, opts.Partition)
	if err != nil {
		return nil, err
	}
	acc.partitionMS += ms(time.Since(t))

	decisions := make([]selector.Decision, len(pres.Subproblems))
	selected := make([]pool.Algorithm, len(pres.Subproblems))
	for i, sp := range pres.Subproblems {
		decisions[i] = opts.Policy.Decide(sp)
		selected[i] = decisions[i].Algorithm
	}
	remaining := max(opts.Budget-time.Since(start), minSolveBudget)
	results := pool.SolveAll(ctx, pres.Subproblems, func(i int) pool.Algorithm { return selected[i] }, remaining, opts.Parallelism)
	if learner, ok := opts.Policy.(selector.Observer); ok {
		for i, r := range results {
			if r.Race != nil {
				learner.ObserveRace(selector.FromRace(pres.Subproblems[i], r.Race))
			}
		}
	}

	t = time.Now()
	next := sched.Merge(p, current, pres, results)
	core.ReconcileSLA(p, current, next)
	if core.EvictForSLA(p, next) {
		next = sched.Complete(p, next)
		core.ReconcileSLA(p, current, next)
	}
	acc.mergeMS += ms(time.Since(t))

	res := &core.Result{
		Assignment:       next,
		GainedAffinity:   next.GainedAffinity(p),
		OriginalAffinity: current.GainedAffinity(p),
		Partition:        pres,
		SubResults:       results,
		Selected:         selected,
		Decisions:        decisions,
	}
	for _, r := range results {
		res.Stats.Merge(r.Stats)
	}
	res.Stats.Stop = solve.Optimal

	t = time.Now()
	plan, err := migrate.Compute(ctx, p, current, next, migrate.Options{MinAlive: opts.MinAlive})
	switch {
	case err == nil:
		res.Plan = plan
		if plan.Relocations > 0 {
			reached, err := migrate.Simulate(p, current, plan, opts.MinAlive)
			if err != nil {
				return nil, fmt.Errorf("migration replay: %w", err)
			}
			res.Assignment, res.GainedAffinity = reached, reached.GainedAffinity(p)
		}
	case errors.Is(err, migrate.ErrStalled):
		reached, err := migrate.Simulate(p, current, plan, opts.MinAlive)
		if err != nil {
			return nil, fmt.Errorf("partial migration replay: %w", err)
		}
		completed := sched.Complete(p, reached)
		var finalStep migrate.Step
		completed.EachPlacement(func(s, m, count int) {
			for extra := count - reached.Get(s, m); extra > 0; extra-- {
				finalStep = append(finalStep, migrate.Command{Op: migrate.Create, Service: s, Machine: m})
			}
		})
		if len(finalStep) > 0 {
			plan.Steps = append(plan.Steps, finalStep)
		}
		res.Plan, res.PartialMigration = plan, true
		res.Assignment, res.GainedAffinity = completed, completed.GainedAffinity(p)
	default:
		return nil, fmt.Errorf("migration planning: %w", err)
	}
	acc.migrateMS += ms(time.Since(t))
	acc.steps += float64(len(res.Plan.Steps))
	acc.addPass(res.Stats, subSolves(results))
	res.Elapsed = time.Since(start)
	return res, nil
}
