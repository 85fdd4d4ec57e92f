// Package core implements the full three-phase RASA algorithm of
// Section IV: service partitioning, algorithm selection, parallel
// subproblem solving, solution merging, and migration-path computation.
// It is the paper's primary contribution; everything else under
// internal/ is substrate.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/pool"
	"github.com/cloudsched/rasa/internal/sched"
	"github.com/cloudsched/rasa/internal/selector"
	"github.com/cloudsched/rasa/internal/solve"
)

// Strategy selects the service-partitioning algorithm (the Fig. 6
// comparison).
type Strategy int

// Partitioning strategies.
const (
	// Multistage is the paper's four-stage partitioner (default).
	Multistage Strategy = iota
	// RandomPartition splits affinity services uniformly at random.
	RandomPartition
	// KWayPartition uses the multilevel min-cut partitioner (KaHIP
	// stand-in).
	KWayPartition
	// NoPartition solves the whole cluster as one subproblem with the
	// direct MIP solver; expected to go out-of-time beyond small
	// clusters.
	NoPartition
)

func (s Strategy) String() string {
	switch s {
	case Multistage:
		return "MULTI-STAGE-PARTITION"
	case RandomPartition:
		return "RANDOM-PARTITION"
	case KWayPartition:
		return "KAHIP"
	case NoPartition:
		return "NO-PARTITION"
	}
	return "unknown"
}

// Options tune an optimization pass.
type Options struct {
	// Budget is the end-to-end optimization budget (the paper evaluates
	// under a one-minute time-out; scaled budgets reproduce the same
	// shapes on this substrate). Default 2s.
	Budget time.Duration
	// Strategy picks the partitioner; default Multistage.
	Strategy Strategy
	// Partition forwards partitioner tuning (master ratio, target size,
	// sampling, seed).
	Partition partition.Options
	// Policy selects the pool algorithm per subproblem; default the
	// empirical Heuristic. Pass a trained selector.GCNPolicy for the
	// full paper configuration.
	Policy selector.Policy
	// Parallelism bounds concurrent subproblem solves; 0 = GOMAXPROCS.
	Parallelism int
	// MinAlive is the migration SLA floor; default 0.75.
	MinAlive float64
	// SkipMigration skips migration-path computation (pure quality
	// benchmarks).
	SkipMigration bool
}

// ErrInvalidOptions is the sentinel every Normalize rejection wraps:
// errors.Is(err, ErrInvalidOptions) identifies an Options value the
// pipeline refuses to run with.
var ErrInvalidOptions = errors.New("core: invalid options")

// maxParallelism caps caller-requested solver concurrency: beyond this
// the goroutine and deadline bookkeeping costs dominate any speedup.
const maxParallelism = 256

// Normalize validates o and fills defaults, returning the normalized
// copy. It is the single options gate: every public entry point —
// Optimize, the incr engine's full and delta passes, the server's job
// and cluster-session handlers — runs its Options through here instead
// of scattering ad-hoc checks. Negative budgets are rejected (a zero
// budget means "default", a negative one is a caller bug), MinAlive
// must stay within [0, 1] (zero means the migration default), and
// worker counts are clamped to [0, 256] (zero means GOMAXPROCS).
func (o Options) Normalize() (Options, error) {
	if o.Budget < 0 {
		return o, fmt.Errorf("%w: negative budget %v", ErrInvalidOptions, o.Budget)
	}
	if o.Budget == 0 {
		o.Budget = 2 * time.Second
	}
	if o.MinAlive < 0 || o.MinAlive > 1 {
		return o, fmt.Errorf("%w: MinAlive %v outside [0, 1]", ErrInvalidOptions, o.MinAlive)
	}
	if o.Parallelism < 0 {
		o.Parallelism = 0
	} else if o.Parallelism > maxParallelism {
		o.Parallelism = maxParallelism
	}
	if o.Policy == nil {
		o.Policy = selector.Heuristic{}
	}
	return o, nil
}

// Result is the outcome of one optimization pass.
type Result struct {
	// Assignment is the optimized container-to-machine mapping.
	Assignment *cluster.Assignment
	// Plan transitions the cluster from the input assignment to
	// Assignment (nil when SkipMigration).
	Plan *migrate.Plan
	// GainedAffinity of Assignment and of the input mapping, in affinity
	// units (workload-generated clusters normalize total affinity to 1).
	GainedAffinity   float64
	OriginalAffinity float64
	// Partition reports the partitioning phase.
	Partition *partition.Result
	// SubResults holds the per-subproblem solver outcomes, aligned with
	// Partition.Subproblems. A raced subproblem's entry reports the
	// winning arm as Algorithm and the head-to-head in Race.
	SubResults []pool.Result
	// Selected records the algorithm chosen per subproblem (pool.Race
	// when the policy asked for a head-to-head).
	Selected []pool.Algorithm
	// Decisions records each subproblem's confidence-aware policy
	// decision, aligned with Selected.
	Decisions []selector.Decision
	// OutOfTime reports that the solver phase produced nothing: every
	// subproblem exhausted the budget without placements (the paper's
	// OOT outcome — e.g. NO-PARTITION beyond small clusters). Individual
	// failed subproblems merely fall back to the default scheduler.
	OutOfTime bool
	// PartialMigration reports that the migration planner hit a
	// resource-ordering deadlock and Assignment was adjusted to the
	// reachable state (Plan transitions exactly to it).
	PartialMigration bool
	// Elapsed is the total wall time of the pass.
	Elapsed time.Duration
	// Stats aggregates solver effort across every subproblem solve:
	// simplex pivots, branch-and-bound nodes, CG columns, per-phase wall
	// time, and the stop cause of the pass as a whole.
	Stats solve.Stats
}

// ReconcileSLA keeps under-placed services' surplus containers at their
// current machines where capacity (and constraints) allow. The optimizer
// tolerates failed deployments, but a target that places fewer
// containers than currently run would force the migration to scale a
// service down; keeping those containers in place is strictly better.
// Settle runs it on every merged target.
func ReconcileSLA(p *cluster.Problem, current, next *cluster.Assignment) {
	used := next.UsedResources(p)
	antiUsed := make([][]int, len(p.AntiAffinity))
	for k := range antiUsed {
		antiUsed[k] = make([]int, p.M())
	}
	memberOf := make([][]int, p.N())
	for k, rule := range p.AntiAffinity {
		for _, s := range rule.Services {
			memberOf[s] = append(memberOf[s], k)
		}
	}
	next.EachPlacement(func(s, m, count int) {
		for _, k := range memberOf[s] {
			antiUsed[k][m] += count
		}
	})
	for s := 0; s < p.N(); s++ {
		deficit := current.Placed(s) - next.Placed(s)
		if deficit <= 0 {
			continue
		}
		req := p.Services[s].Request
		for _, m := range current.MachinesOf(s) {
			for deficit > 0 && next.Get(s, m) < current.Get(s, m) {
				if !used[m].Add(req).Fits(p.Machines[m].Capacity) {
					break
				}
				blocked := false
				for _, k := range memberOf[s] {
					if antiUsed[k][m]+1 > p.AntiAffinity[k].MaxPerHost {
						blocked = true
						break
					}
				}
				if blocked {
					break
				}
				next.Add(s, m, 1)
				used[m] = used[m].Add(req)
				for _, k := range memberOf[s] {
					antiUsed[k][m]++
				}
				deficit--
			}
			if deficit == 0 {
				break
			}
		}
	}
}

// EvictForSLA makes room for under-placed compatibility-restricted
// services by evicting containers of unrestricted services (which can
// run anywhere) from the restricted services' compatible machines.
// Returns true if any eviction happened; callers must re-run the default
// scheduler to re-place the evicted containers, as Settle does.
func EvictForSLA(p *cluster.Problem, next *cluster.Assignment) bool {
	if p.Schedulable == nil {
		return false
	}
	evicted := false
	used := next.UsedResources(p)
	for s := 0; s < p.N(); s++ {
		if p.Schedulable[s] == nil {
			continue
		}
		deficit := p.Services[s].Replicas - next.Placed(s)
		if deficit <= 0 {
			continue
		}
		req := p.Services[s].Request
		for m := 0; m < p.M() && deficit > 0; m++ {
			if !p.CanHost(s, m) {
				continue
			}
			for deficit > 0 {
				if used[m].Add(req).Fits(p.Machines[m].Capacity) {
					next.Add(s, m, 1)
					used[m] = used[m].Add(req)
					deficit--
					continue
				}
				// Evict one container of the unrestricted service with
				// the largest per-container request on this machine.
				victim := -1
				var victimReq float64
				for cand := 0; cand < p.N(); cand++ {
					if cand == s || next.Get(cand, m) == 0 {
						continue
					}
					if p.Schedulable[cand] != nil {
						continue // never evict another restricted service
					}
					if r := p.Services[cand].Request[0]; victim < 0 || r > victimReq {
						victim, victimReq = cand, r
					}
				}
				if victim < 0 {
					break // nothing evictable here; try the next machine
				}
				next.Add(victim, m, -1)
				used[m] = used[m].Sub(p.Services[victim].Request)
				evicted = true
			}
		}
	}
	return evicted
}

// Settle merges the subproblem results over current and reconciles the
// merged target with the current deployment: ReconcileSLA keeps surplus
// containers in place, and when EvictForSLA had to make room for an
// under-placed restricted service, the default scheduler re-places the
// evicted containers and ReconcileSLA runs again so nothing regresses
// below the current deployment. Optimize and the incremental engine's
// delta pass both merge through it.
func Settle(p *cluster.Problem, current *cluster.Assignment, pres *partition.Result, results []pool.Result) *cluster.Assignment {
	next := sched.Merge(p, current, pres, results)
	ReconcileSLA(p, current, next)
	if EvictForSLA(p, next) {
		next = sched.Complete(p, next)
		ReconcileSLA(p, current, next)
	}
	return next
}

// PlanMigration computes the migration plan from current to next, the
// tail Optimize and the incremental engine's delta pass share, and the
// target the plan transitions to exactly: next itself unless the
// planner had to deviate. Deadlock-breaking relocations steer some
// containers to other machines than planned, so the replayed state
// becomes the target. A resource-ordering deadlock (migrate.ErrStalled)
// keeps part of next out of reach: the plan is still valid up to the
// stall point, the still-offline containers are re-placed by the
// default scheduler, their creations are appended as a final step, and
// partial reports it. A context that ends mid-planning returns no plan
// and the context's error.
func PlanMigration(ctx context.Context, p *cluster.Problem, current, next *cluster.Assignment, minAlive float64) (plan *migrate.Plan, target *cluster.Assignment, partial bool, err error) {
	plan, err = migrate.Compute(ctx, p, current, next, migrate.Options{MinAlive: minAlive})
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return nil, nil, false, err
	case err == nil:
		if plan.Relocations == 0 {
			return plan, next, false, nil
		}
		reached, simErr := migrate.Simulate(p, current, plan, minAlive)
		if simErr != nil {
			return nil, nil, false, fmt.Errorf("core: migration replay: %w", simErr)
		}
		return plan, reached, false, nil
	case errors.Is(err, migrate.ErrStalled):
		reached, simErr := migrate.Simulate(p, current, plan, minAlive)
		if simErr != nil {
			return nil, nil, false, fmt.Errorf("core: partial migration replay: %w", simErr)
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
		return plan, completed, true, nil
	default:
		return nil, nil, false, fmt.Errorf("core: migration planning: %w", err)
	}
}

// ImprovementRatio returns (new - old) / old gained affinity; +Inf when
// the original affinity is zero and the new one positive.
func (r *Result) ImprovementRatio() float64 {
	if r.OriginalAffinity <= 0 {
		if r.GainedAffinity > 0 {
			return 1e18
		}
		return 0
	}
	return (r.GainedAffinity - r.OriginalAffinity) / r.OriginalAffinity
}

// minSolveBudget is the floor handed to the solver phase when the
// partitioning phase consumed (almost) the whole budget. A negative or
// zero remaining budget would put the solvers' shared deadline in the
// past before they even start; the floor guarantees they at least get
// to emit their greedy fallback schedules.
const minSolveBudget = 25 * time.Millisecond

// Optimize runs the full RASA algorithm on the cluster: compute a new
// mapping that maximizes overall gained affinity under the given budget
// and the migration plan that realizes it.
//
// Cancelling the context interrupts whichever phase is running:
// partitioning falls back to its best sampled split, the subproblem
// solvers return their incumbents, and migration planning is skipped —
// so a cancelled Optimize still returns a usable best-effort Result
// rather than an error. Result.Stats records why the pass stopped.
func Optimize(ctx context.Context, p *cluster.Problem, current *cluster.Assignment, opts Options) (*Result, error) {
	start := time.Now()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if current == nil {
		return nil, fmt.Errorf("core: nil current assignment")
	}
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}

	// Phase 1: service partitioning.
	var pres *partition.Result
	switch opts.Strategy {
	case Multistage:
		pres, err = partition.Multistage(ctx, p, current, opts.Partition)
	case RandomPartition:
		pres, err = partition.Random(ctx, p, current, opts.Partition)
	case KWayPartition:
		pres, err = partition.KWay(ctx, p, current, opts.Partition)
	case NoPartition:
		pres, err = partition.None(ctx, p)
	default:
		err = fmt.Errorf("core: unknown strategy %d", opts.Strategy)
	}
	if err != nil {
		return nil, err
	}

	// Phase 2: algorithm selection + parallel solving under the
	// remaining budget. Policies decide per subproblem; a decision of
	// pool.Race (a learned policy below its confidence threshold, or the
	// explicit always-race policy) makes the solve layer run both
	// algorithms head to head.
	decisions := make([]selector.Decision, len(pres.Subproblems))
	selected := make([]pool.Algorithm, len(pres.Subproblems))
	for i, sp := range pres.Subproblems {
		if opts.Strategy == NoPartition {
			// NO-PARTITION is defined as handing the whole problem to
			// the solver (Section V-B).
			decisions[i] = selector.Decision{Algorithm: pool.MIP, Confidence: 1, Source: "no-partition"}
			selected[i] = pool.MIP
			continue
		}
		decisions[i] = opts.Policy.Decide(sp)
		selected[i] = decisions[i].Algorithm
	}
	remaining := opts.Budget - time.Since(start)
	if remaining < minSolveBudget {
		// Partitioning overran the budget: keep the solvers' shared
		// deadline slightly in the future instead of already expired, so
		// their anytime greedy fallbacks still produce placements.
		remaining = minSolveBudget
	}
	results := pool.SolveAll(ctx, pres.Subproblems, func(i int) pool.Algorithm { return selected[i] }, remaining, opts.Parallelism)

	// Raced subproblems produced oracle labels; feed them back to a
	// learning policy so low-confidence regions shrink over time.
	if learner, ok := opts.Policy.(selector.Observer); ok {
		for i, r := range results {
			if r.Race != nil {
				learner.ObserveRace(selector.FromRace(pres.Subproblems[i], r.Race))
			}
		}
	}

	// Phase 3: merge and migration path.
	newAssign := Settle(p, current, pres, results)
	res := &Result{
		Assignment:       newAssign,
		GainedAffinity:   newAssign.GainedAffinity(p),
		OriginalAffinity: current.GainedAffinity(p),
		Partition:        pres,
		SubResults:       results,
		Selected:         selected,
		Decisions:        decisions,
	}
	if len(results) > 0 {
		res.OutOfTime = true
		for _, r := range results {
			if !r.OutOfTime {
				res.OutOfTime = false
				break
			}
		}
	}
	for _, r := range results {
		res.Stats.Merge(r.Stats)
	}
	switch {
	case ctx.Err() != nil:
		res.Stats.Stop = solve.Cause(ctx.Err())
	case res.OutOfTime:
		res.Stats.Stop = solve.Deadline
	default:
		res.Stats.Stop = solve.Optimal
	}
	if !opts.SkipMigration && ctx.Err() == nil {
		plan, target, partial, err := PlanMigration(ctx, p, current, newAssign, opts.MinAlive)
		switch {
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Cancelled mid-planning: report the optimized assignment
			// without a migration path, like SkipMigration — the caller
			// asked the whole pass to stop.
			res.Stats.Stop = solve.Cause(err)
		case err != nil:
			return nil, err
		default:
			res.Plan, res.PartialMigration = plan, partial
			if target != newAssign {
				res.Assignment = target
				res.GainedAffinity = target.GainedAffinity(p)
			}
		}
	}
	res.Elapsed = time.Since(start)
	res.Stats.Wall = res.Elapsed
	return res, nil
}
