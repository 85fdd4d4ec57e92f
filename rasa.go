// Package rasa is the public API of the RASA library — an implementation
// of "Resource Allocation with Service Affinity in Large-Scale Cloud
// Environments" (ICDE 2024).
//
// RASA computes container-to-machine mappings that maximize *gained
// affinity*: the share of inter-service traffic that can be served
// between collocated containers over IPC instead of crossing the network
// (Definition 1 of the paper). The optimizer follows the paper's
// three-phase algorithm — multi-stage service partitioning, learned
// algorithm selection between MIP and column generation, and migration
// path computation — implemented entirely in Go on a from-scratch
// simplex/branch-and-bound substrate.
//
// Quick start (every long-running entry point takes a context.Context
// first):
//
//	b := rasa.NewClusterBuilder("cpu", "memory")
//	web := b.AddService("web", 4, rasa.Resources{2, 4})
//	cache := b.AddService("cache", 4, rasa.Resources{1, 8})
//	for i := 0; i < 4; i++ {
//		b.AddMachine(fmt.Sprintf("node-%d", i), rasa.Resources{8, 32})
//	}
//	b.SetAffinity(web, cache, 1.0) // traffic volume between the services
//	p, _ := b.Build()
//	current, _ := rasa.Schedule(p, 42) // or your cluster's real state
//	ctx := context.Background()
//	res, _ := rasa.OptimizeContext(ctx, p, current, rasa.Options{Budget: time.Second})
//	fmt.Println(res.GainedAffinity, len(res.Plan.Steps))
//
// Failures are classified by the sentinel errors ErrInvalidProblem,
// ErrInfeasible, and ErrBudgetExceeded (see errors.go) — test with
// errors.Is rather than matching message strings.
//
// See the examples/ directory for complete programs and DESIGN.md for
// the system inventory.
package rasa

import (
	"context"
	"fmt"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/core"
	"github.com/cloudsched/rasa/internal/graph"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/pool"
	"github.com/cloudsched/rasa/internal/prodsim"
	"github.com/cloudsched/rasa/internal/sched"
	"github.com/cloudsched/rasa/internal/selector"
	"github.com/cloudsched/rasa/internal/solve"
	"github.com/cloudsched/rasa/internal/workload"
)

// Core problem model (see internal/cluster).
type (
	// Problem is a full RASA instance: services, machines, constraints
	// and the affinity graph.
	Problem = cluster.Problem
	// Service is a microservice with an SLA replica count and a
	// per-container resource request.
	Service = cluster.Service
	// Machine is a host with multi-dimensional capacity.
	Machine = cluster.Machine
	// Resources is a vector of resource quantities (same ordering as
	// Problem.ResourceNames).
	Resources = cluster.Resources
	// AntiAffinityRule caps containers of a service set per machine.
	AntiAffinityRule = cluster.AntiAffinityRule
	// Assignment is a container-to-machine mapping x[s][m].
	Assignment = cluster.Assignment
	// Violation describes one constraint violation found by
	// Assignment.Check.
	Violation = cluster.Violation
	// AffinityGraph is the weighted service-affinity graph.
	AffinityGraph = graph.Graph
	// PriorityLevel weights a service's traffic in the affinity graph
	// (Section II-B).
	PriorityLevel = cluster.PriorityLevel
)

// Priority levels for SetServicePriority.
const (
	PriorityLow      = cluster.PriorityLow
	PriorityNormal   = cluster.PriorityNormal
	PriorityHigh     = cluster.PriorityHigh
	PriorityCritical = cluster.PriorityCritical
)

// Optimization pipeline (see internal/core).
type (
	// Options tunes an Optimize pass.
	Options = core.Options
	// Result is the outcome of an Optimize pass.
	Result = core.Result
	// Strategy selects the service-partitioning algorithm.
	Strategy = core.Strategy
	// PartitionOptions tunes the partitioning phase (master ratio,
	// subproblem size, sampling).
	PartitionOptions = partition.Options
	// Policy chooses between the MIP and column-generation algorithms
	// for each subproblem.
	Policy = selector.Policy
	// SolveStats reports solver effort: simplex pivots, branch-and-bound
	// nodes, CG columns and pricing rounds, per-phase wall time, and the
	// cause that stopped the solve. Result.Stats aggregates it across
	// every subproblem of an Optimize pass.
	SolveStats = solve.Stats
	// StopCause reports why a solve stopped (see the Stop* constants).
	StopCause = solve.StopCause
)

// Stop causes reported in SolveStats.Stop.
const (
	StopNone      = solve.None
	StopOptimal   = solve.Optimal
	StopDeadline  = solve.Deadline
	StopCancelled = solve.Cancelled
	StopNodeLimit = solve.NodeLimit
)

// Partitioning strategies (Fig. 6 of the paper).
const (
	Multistage      = core.Multistage
	RandomPartition = core.RandomPartition
	KWayPartition   = core.KWayPartition
	NoPartition     = core.NoPartition
)

// Migration planning (see internal/migrate).
type (
	// MigrationPlan is an ordered list of parallel command sets.
	MigrationPlan = migrate.Plan
	// MigrationStep is one parallel command set.
	MigrationStep = migrate.Step
	// MigrationCommand deletes or creates one container.
	MigrationCommand = migrate.Command
)

// Workload generation (see internal/workload).
type (
	// Preset describes a synthetic cluster to generate.
	Preset = workload.Preset
	// GeneratedCluster is a generated problem plus its initial
	// (pre-RASA) deployment.
	GeneratedCluster = workload.Cluster
)

// Production simulation (see internal/prodsim).
type (
	// Simulation configures the CronJob-driven production simulator.
	Simulation = prodsim.Config
	// SimulationReport is one scenario's time series.
	SimulationReport = prodsim.Report
	// SimulationComparison bundles WITH/WITHOUT/ONLY-COLLOCATED runs.
	SimulationComparison = prodsim.Comparison
)

// NewAssignment returns an empty assignment for n services and m
// machines.
func NewAssignment(n, m int) *Assignment { return cluster.NewAssignment(n, m) }

// NewAffinityGraph returns an empty affinity graph over n services.
func NewAffinityGraph(n int) *AffinityGraph { return graph.New(n) }

// OptimizeContext runs the full RASA algorithm: partition the cluster,
// select a solver per subproblem, solve in parallel under
// Options.Budget, merge, and compute the migration plan from current to
// the optimized mapping.
//
// Every phase of the pipeline observes ctx, and a cancelled pass still
// returns the best mapping assembled so far (solvers hand back their
// incumbents, greedy fallbacks cover the rest) rather than an error.
// Result.Stats reports how far the pass got and why it stopped.
func OptimizeContext(ctx context.Context, p *Problem, current *Assignment, opts Options) (*Result, error) {
	res, err := core.Optimize(ctx, p, current, opts)
	return res, wrapErr(err)
}

// Schedule computes an affinity-oblivious initial placement with the
// ORIGINAL production scheduler (online first-fit with filter/score) —
// useful to bootstrap experiments when no real cluster state exists.
func Schedule(p *Problem, seed int64) (*Assignment, error) {
	a, err := sched.Original(p, seed)
	return a, wrapErr(err)
}

// PlanMigrationContext computes an executable migration path from one
// feasible assignment to another, keeping at least minAlive (default
// 0.75) of every service's containers running and never exceeding
// capacities. A cancelled planning run returns the partial plan built
// so far together with the context's error; a stalled one returns the
// reachable prefix with an error wrapping ErrInfeasible (every plan
// prefix is safe to execute).
func PlanMigrationContext(ctx context.Context, p *Problem, from, to *Assignment, minAlive float64) (*MigrationPlan, error) {
	plan, err := migrate.Compute(ctx, p, from, to, migrate.Options{MinAlive: minAlive})
	return plan, wrapErr(err)
}

// SimulateMigration replays a plan, validating every step, and returns
// the final assignment.
func SimulateMigration(p *Problem, from *Assignment, plan *MigrationPlan, minAlive float64) (*Assignment, error) {
	a, err := migrate.Simulate(p, from, plan, minAlive)
	return a, wrapErr(err)
}

// HeuristicPolicy returns the empirical CG/MIP selection rule of
// Section V-C — the zero-training default.
func HeuristicPolicy() Policy { return selector.Heuristic{} }

// AlwaysCG returns the fixed column-generation selection policy
// (ablation baseline).
func AlwaysCG() Policy { return selector.Fixed{Algorithm: pool.CG} }

// AlwaysMIP returns the fixed MIP selection policy (ablation baseline).
func AlwaysMIP() Policy { return selector.Fixed{Algorithm: pool.MIP} }

// Generate builds a synthetic cluster from a preset, including its
// initial deployment.
func Generate(ps Preset) (*GeneratedCluster, error) { return workload.Generate(ps) }

// EvaluationPresets returns the M1–M4 cluster presets (Table II shapes,
// scaled).
func EvaluationPresets() []Preset { return workload.EvaluationPresets() }

// TrainingPresets returns the T1–T4 presets used to train the GCN
// selector.
func TrainingPresets() []Preset { return workload.TrainingPresets() }

// TrainingConfig configures TrainPolicyContext.
type TrainingConfig struct {
	// Clusters to label; nil generates the paper's T1–T4 training
	// presets.
	Clusters []*GeneratedCluster
	// Kind picks the classifier: "gcn" (default, Section IV-D) or "mlp"
	// (the topology-blind baseline of Fig. 8).
	Kind string
	// LabelBudget is the per-subproblem CG-vs-MIP race budget. Default
	// 200ms.
	LabelBudget time.Duration
	// Rounds partitions each cluster this many times with increasing
	// subproblem sizes, widening the training distribution. Default 3.
	Rounds int
	// Seed drives partitioning, labelling, and weight init.
	Seed int64
}

func (c TrainingConfig) withDefaults() TrainingConfig {
	if c.Kind == "" {
		c.Kind = "gcn"
	}
	if c.LabelBudget <= 0 {
		c.LabelBudget = 200 * time.Millisecond
	}
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	return c
}

// TrainedPolicy is a versioned, ready-to-serve selection policy
// returned by TrainPolicyContext.
type TrainedPolicy struct {
	// Policy is the trained selection policy; it only predicts.
	Policy
	// Version is the model version, 1 for a freshly trained policy.
	Version int
	// HoldoutAccuracy is predictor-vs-oracle accuracy on the held-out
	// labelled split (ties excluded).
	HoldoutAccuracy float64
	// Examples is the number of labelled races the training consumed.
	Examples int
}

// TrainPolicyContext builds the learned algorithm-selection policy of
// Section IV-D end to end: it partitions each training cluster several
// times with varying subproblem sizes, labels every subproblem by
// racing CG against MIP under cfg.LabelBudget, fits the classifier, and
// returns it as a versioned policy. ctx cancels the labelling races
// (the fit itself is fast and uninterruptible).
func TrainPolicyContext(ctx context.Context, cfg TrainingConfig) (*TrainedPolicy, error) {
	cfg = cfg.withDefaults()
	clusters := cfg.Clusters
	if clusters == nil {
		for _, ps := range TrainingPresets() {
			c, err := Generate(ps)
			if err != nil {
				return nil, wrapErr(err)
			}
			clusters = append(clusters, c)
		}
	}
	if cfg.Kind != "gcn" && cfg.Kind != "mlp" {
		return nil, wrapErr(fmt.Errorf("%w: unknown policy kind %q (want gcn or mlp)", ErrInvalidProblem, cfg.Kind))
	}
	labeled, err := labelClusters(ctx, clusters, cfg.LabelBudget, cfg.Rounds, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Every 5th decisive example is held out; ties are noise and are
	// never scored.
	var train, holdout []selector.Labeled
	for i, l := range labeled {
		if !l.Tie && (i+1)%5 == 0 {
			holdout = append(holdout, l)
		} else {
			train = append(train, l)
		}
	}
	scored := selector.ToSamples(holdout)
	out := &TrainedPolicy{Version: 1, Examples: len(labeled)}
	if cfg.Kind == "gcn" {
		m := selector.TrainGCN(train, cfg.Seed)
		out.Policy, out.HoldoutAccuracy = selector.GCNPolicy{Model: m}, m.Accuracy(scored)
	} else {
		m := selector.TrainMLP(train, cfg.Seed)
		out.Policy, out.HoldoutAccuracy = selector.MLPPolicy{Model: m}, m.Accuracy(scored)
	}
	return out, nil
}

// labelClusters is TrainPolicyContext's labelling loop: it partitions
// each cluster rounds times with growing subproblem sizes and races CG
// against MIP on every subproblem.
func labelClusters(ctx context.Context, clusters []*GeneratedCluster, labelBudget time.Duration, rounds int, seed int64) ([]selector.Labeled, error) {
	var labeled []selector.Labeled
	for ci, c := range clusters {
		for round := 0; round < rounds; round++ {
			pres, err := partition.Multistage(ctx, c.Problem, c.Original, partition.Options{
				TargetSize: 6 + 4*round,
				Seed:       seed + int64(ci*10+round),
			})
			if err != nil {
				return nil, err
			}
			for _, sp := range pres.Subproblems {
				l, err := selector.Label(ctx, sp, labelBudget)
				if err != nil {
					return nil, err
				}
				labeled = append(labeled, l)
			}
		}
	}
	return labeled, nil
}

// SimulateContext runs the production simulator for one scenario; ctx
// cancels between simulated ticks.
func SimulateContext(ctx context.Context, cfg Simulation, scenario prodsim.Scenario) (*SimulationReport, error) {
	return prodsim.Run(ctx, cfg, scenario)
}

// SimulateAllContext runs the WITH RASA / WITHOUT RASA / ONLY
// COLLOCATED scenarios of Section V-F over identical churn; ctx cancels
// between ticks.
func SimulateAllContext(ctx context.Context, cfg Simulation) (*SimulationComparison, error) {
	return prodsim.RunAll(ctx, cfg)
}

// Production-simulation scenarios.
const (
	WithoutRASA    = prodsim.WithoutRASA
	WithRASA       = prodsim.WithRASA
	OnlyCollocated = prodsim.OnlyCollocated
)
