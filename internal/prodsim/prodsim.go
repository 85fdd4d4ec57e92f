// Package prodsim simulates the production deployment of Section III
// and Section V-F: a CronJob-driven control loop that collects the
// cluster state every half-hour tick, runs the RASA algorithm, applies
// the migration plan when the dry-run gate passes, and guards against
// load-balance regressions with rollback plus unschedulable tagging.
//
// On top of the control loop sits a request-level latency/error model:
// traffic between an affinity pair is served over IPC when the calling
// and called containers are collocated and over RPC otherwise, so a
// pair's average latency and error rate are mixtures weighted by its
// localized-traffic share — the quantity RASA optimizes. This is the
// substitution for the paper's altered RPC framework and production
// metrics (see DESIGN.md): Figures 11–13 compare WITH RASA, WITHOUT
// RASA, and ONLY COLLOCATED *relative* to each other, which the mixture
// model preserves by construction.
package prodsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/core"
	"github.com/cloudsched/rasa/internal/exec"
	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/sched"
	"github.com/cloudsched/rasa/internal/workload"
	"github.com/cloudsched/rasa/internal/workload/churn"
)

// LatencyModel parameterizes the request-level performance model.
type LatencyModel struct {
	IPCMillis  float64 // mean latency of a collocated (IPC) call
	RPCMillis  float64 // mean latency of a remote (RPC) call
	Jitter     float64 // multiplicative lognormal-ish noise amplitude on RPC
	ErrLocal   float64 // error probability of a local call
	ErrRemote  float64 // error probability of a remote call
	Congestion float64 // extra RPC latency factor per unit of cluster remote-traffic share
}

// DefaultLatencyModel reflects the order-of-magnitude gap between IPC
// and intra-datacenter RPC.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		IPCMillis:  0.9,
		RPCMillis:  3.6,
		Jitter:     0.18,
		ErrLocal:   0.0004,
		ErrRemote:  0.0041,
		Congestion: 0.55,
	}
}

// Config drives a simulation.
type Config struct {
	Workload       workload.Preset
	Ticks          int           // half-hour ticks to simulate
	OptimizeEvery  int           // CronJob period in ticks (default 1)
	Budget         time.Duration // RASA budget per run (default 1s)
	MinImprovement float64       // dry-run gate (default 0.03, Section III-B)
	// ChurnServices is how many services are redeployed (scaled/updated)
	// per tick by causes outside RASA's control.
	ChurnServices int
	// TrackedPairs is how many top-affinity service pairs are reported
	// individually (the paper tracks 4 critical pairs).
	TrackedPairs int
	// RollbackUtilization triggers the rollback mechanism when any
	// machine's primary-resource utilization exceeds it after applying a
	// reallocation. The default of 1.0 effectively disables the guard:
	// capacity constraints already cap utilization at 1.0, and affinity
	// packing legitimately fills machines, so this is an extreme-case
	// protection to be tuned per deployment (Section III-B), not a
	// steady-state gate.
	RollbackUtilization float64
	// UnschedulableTicks is how long rolled-back services are tagged
	// unschedulable (default 144 ticks = 3 days of half-hour ticks).
	UnschedulableTicks int
	Latency            LatencyModel
	Partition          partition.Options
	Seed               int64
	// OnOptimize, when non-nil, receives every RASA optimization pass of
	// the WithRASA scenario (tick index plus the full pass result) as it
	// completes. rasad -loop uses it to publish per-tick solver stats
	// through its metrics registry; the hook must not retain res.
	OnOptimize func(tick int, res *core.Result)
	// Execute drives each gated WithRASA reallocation through an
	// exec.Executor against a simulated fabric instead of adopting the
	// target atomically. The state the cluster actually ends up in is
	// whatever the executor achieved — under faults that can differ from
	// the plan's target.
	Execute bool
	// ExecFaultRate is the fabric's per-command failure probability when
	// Execute is on; zero selects the instant, fault-free fabric.
	ExecFaultRate float64
	// MinAlive is the SLA floor fraction held during plan execution
	// (default 0.75).
	MinAlive float64
	// OnExecute, when non-nil, receives every executor report of the
	// WithRASA scenario; the hook must not retain rep.
	OnExecute func(tick int, rep *exec.Report)
}

func (c Config) withDefaults() Config {
	if c.Ticks <= 0 {
		c.Ticks = 48
	}
	if c.OptimizeEvery <= 0 {
		c.OptimizeEvery = 1
	}
	if c.Budget <= 0 {
		c.Budget = time.Second
	}
	if c.MinImprovement == 0 {
		c.MinImprovement = 0.03
	}
	if c.TrackedPairs <= 0 {
		c.TrackedPairs = 4
	}
	if c.RollbackUtilization == 0 {
		c.RollbackUtilization = 1.0
	}
	if c.UnschedulableTicks <= 0 {
		c.UnschedulableTicks = 144
	}
	if c.Latency == (LatencyModel{}) {
		c.Latency = DefaultLatencyModel()
	}
	if c.MinAlive == 0 {
		c.MinAlive = 0.75
	}
	return c
}

// Scenario selects the placement policy being measured.
type Scenario int

// Scenarios of Section V-F.
const (
	WithoutRASA    Scenario = iota // ORIGINAL placement, churn only
	WithRASA                       // CronJob + RASA optimizing continuously
	OnlyCollocated                 // upper bound: every pair fully localized
)

func (s Scenario) String() string {
	switch s {
	case WithoutRASA:
		return "WITHOUT RASA"
	case WithRASA:
		return "WITH RASA"
	case OnlyCollocated:
		return "ONLY COLLOCATED"
	}
	return "unknown"
}

// PairMetrics is the per-tick performance of one service pair.
type PairMetrics struct {
	Latency   float64 // mean end-to-end latency, ms
	ErrorRate float64 // request error probability
}

// TickMetrics is the state of one simulated half-hour.
type TickMetrics struct {
	Pairs          []PairMetrics // tracked pairs, aligned with Report.TrackedPairs
	Weighted       PairMetrics   // QPS-weighted over every affinity pair
	GainedAffinity float64
	Moves          int  // containers relocated by RASA this tick
	Applied        bool // did a reallocation pass the dry-run gate
	RolledBack     bool // did the rollback mechanism fire
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario     Scenario
	TrackedPairs [][2]int
	Ticks        []TickMetrics
}

// MeanWeighted returns the time-averaged weighted latency and error.
func (r *Report) MeanWeighted() PairMetrics {
	var out PairMetrics
	if len(r.Ticks) == 0 {
		return out
	}
	for _, t := range r.Ticks {
		out.Latency += t.Weighted.Latency
		out.ErrorRate += t.Weighted.ErrorRate
	}
	out.Latency /= float64(len(r.Ticks))
	out.ErrorRate /= float64(len(r.Ticks))
	return out
}

// MeanPair returns the time-averaged metrics of tracked pair i.
func (r *Report) MeanPair(i int) PairMetrics {
	var out PairMetrics
	if len(r.Ticks) == 0 {
		return out
	}
	for _, t := range r.Ticks {
		out.Latency += t.Pairs[i].Latency
		out.ErrorRate += t.Pairs[i].ErrorRate
	}
	out.Latency /= float64(len(r.Ticks))
	out.ErrorRate /= float64(len(r.Ticks))
	return out
}

// Comparison bundles the three scenario runs over identical churn.
type Comparison struct {
	Without, With, Collocated *Report
}

// Run simulates one scenario. Cancelling the context stops the
// simulation between ticks and returns the context's error.
func Run(ctx context.Context, cfg Config, scenario Scenario) (*Report, error) {
	cfg = cfg.withDefaults()
	w, err := workload.Generate(cfg.Workload)
	if err != nil {
		return nil, err
	}
	return run(ctx, cfg, scenario, w)
}

// RunAll simulates all three scenarios over the same generated cluster
// and identical churn schedules, as required for a like-for-like
// comparison.
func RunAll(ctx context.Context, cfg Config) (*Comparison, error) {
	cfg = cfg.withDefaults()
	w, err := workload.Generate(cfg.Workload)
	if err != nil {
		return nil, err
	}
	without, err := run(ctx, cfg, WithoutRASA, w)
	if err != nil {
		return nil, err
	}
	with, err := run(ctx, cfg, WithRASA, w)
	if err != nil {
		return nil, err
	}
	col, err := run(ctx, cfg, OnlyCollocated, w)
	if err != nil {
		return nil, err
	}
	return &Comparison{Without: without, With: with, Collocated: col}, nil
}

func run(ctx context.Context, cfg Config, scenario Scenario, w *workload.Cluster) (*Report, error) {
	p := w.Problem
	assign := w.Original.Clone()
	// The live cluster state: churn flows through the incremental event
	// log (the same vocabulary the serving layer speaks), and the gated
	// RASA reallocations are pushed back into it.
	st, err := incr.NewState(p, assign)
	if err != nil {
		return nil, fmt.Errorf("prodsim: %w", err)
	}
	rep := &Report{Scenario: scenario, TrackedPairs: topPairs(p, cfg.TrackedPairs)}
	// Churn schedule must be identical across scenarios: derive from the
	// config seed only. The schedule is generated up front by the shared
	// churn generator, in the lifetime event vocabulary the serving layer
	// speaks.
	redeploys := churn.Redeploy(p, churn.RedeployConfig{
		Ticks:   cfg.Ticks,
		PerTick: cfg.ChurnServices,
		Seed:    cfg.Seed*7919 + 13,
	})
	noiseRng := rand.New(rand.NewSource(cfg.Seed*104729 + 29))
	unschedulableUntil := make([]int, p.N())

	for tick := 0; tick < cfg.Ticks; tick++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("prodsim: stopped at tick %d: %w", tick, err)
		}
		tm := TickMetrics{}

		// 1. Cluster churn: some services get redeployed by their owners
		// (updates, scaling); their containers land wherever the default
		// scheduler puts them, eroding collocation. Events flow through
		// the lifetime event log; Settle re-places the stripped
		// containers with the default scheduler.
		if batch := redeploys[tick]; len(batch) > 0 {
			if _, err := st.Apply(batch...); err != nil {
				return nil, fmt.Errorf("prodsim: tick %d: %w", tick, err)
			}
		}
		st.Settle()
		assign = st.Assignment()

		// 2. CronJob: trigger the RASA workflow on schedule.
		if scenario == WithRASA && tick%cfg.OptimizeEvery == 0 {
			res, err := core.Optimize(ctx, p, assign, core.Options{
				Budget:        cfg.Budget,
				Partition:     withSeed(cfg.Partition, cfg.Seed+int64(tick)),
				SkipMigration: true,
			})
			if err != nil {
				return nil, fmt.Errorf("prodsim: tick %d: %w", tick, err)
			}
			if cfg.OnOptimize != nil {
				cfg.OnOptimize(tick, res)
			}
			// Respect unschedulable tags: tagged services stay put.
			candidate := res.Assignment.Clone()
			for s := 0; s < p.N(); s++ {
				if unschedulableUntil[s] > tick {
					restoreService(candidate, assign, s)
				}
			}
			candidate = sched.Complete(p, candidate)
			newGain := candidate.GainedAffinity(p)
			curGain := assign.GainedAffinity(p)
			improvement := math.Inf(1)
			if curGain > 0 {
				improvement = (newGain - curGain) / curGain
			}
			// Dry-run gate: only execute when improvement > 3%.
			if improvement > cfg.MinImprovement {
				moves := cluster.MoveCount(assign, candidate)
				if overUtilized(p, candidate, cfg.RollbackUtilization) {
					// Rollback: revert the reallocation and tag the
					// moved services unschedulable for three days.
					tm.RolledBack = true
					for s := 0; s < p.N(); s++ {
						if movedService(assign, candidate, s) {
							unschedulableUntil[s] = tick + cfg.UnschedulableTicks
						}
					}
				} else if cfg.Execute {
					rep, err := executeCandidate(ctx, cfg, st, assign, candidate, tick)
					if err != nil {
						return nil, fmt.Errorf("prodsim: tick %d: %w", tick, err)
					}
					// The cluster lands wherever execution landed, not
					// necessarily on the plan's target.
					assign = st.Assignment()
					tm.Applied = true
					tm.Moves = rep.Executed
					if cfg.OnExecute != nil {
						cfg.OnExecute(tick, rep)
					}
				} else {
					if err := st.SetAssignment(candidate); err != nil {
						return nil, fmt.Errorf("prodsim: tick %d: %w", tick, err)
					}
					// The adoption is committed to the event log, which
					// mutates the live assignment in place; re-read it
					// rather than aliasing the detached candidate.
					assign = st.Assignment()
					tm.Applied = true
					tm.Moves = moves
				}
			}
		}

		// 3. Measure.
		tm.GainedAffinity = assign.GainedAffinity(p)
		tm.Pairs = make([]PairMetrics, len(rep.TrackedPairs))
		remoteShare := clusterRemoteShare(p, assign)
		for i, pair := range rep.TrackedPairs {
			f := localizedFraction(p, assign, pair, scenario)
			tm.Pairs[i] = cfg.Latency.measure(f, remoteShare, noiseRng)
		}
		tm.Weighted = weightedMetrics(p, assign, scenario, cfg.Latency, remoteShare, noiseRng)
		rep.Ticks = append(rep.Ticks, tm)
	}
	return rep, nil
}

func withSeed(o partition.Options, seed int64) partition.Options {
	o.Seed = seed
	return o
}

// executeCandidate runs the gated reallocation through the migration
// executor: the plan from→candidate is computed under the SLA floor and
// driven command by command against the (possibly faulty) fabric. On
// return the state's assignment is the executor's believed final state.
func executeCandidate(ctx context.Context, cfg Config, st *incr.State, from, candidate *cluster.Assignment, tick int) (*exec.Report, error) {
	p := st.Problem()
	plan, err := migrate.Compute(ctx, p, from, candidate, migrate.Options{MinAlive: cfg.MinAlive})
	if err != nil {
		return nil, fmt.Errorf("planning migration: %w", err)
	}
	seed := cfg.Seed*6151 + int64(tick)*13 + 7
	var fab exec.Fabric
	if cfg.ExecFaultRate > 0 {
		fab = exec.NewFaultFabric(from.Clone(), exec.FaultConfig{FailureProb: cfg.ExecFaultRate, Seed: seed})
	} else {
		fab = exec.NewInstantFabric(from.Clone())
	}
	// The executor escalates re-plans through an engine over the live
	// state, so a faulty execution converges on a fresh target instead
	// of retrying a stale plan forever.
	eng := incr.New(st, incr.Options{Budget: cfg.Budget, MinAlive: cfg.MinAlive, Parallelism: 1}, nil)
	ex := exec.New(eng, fab, exec.Options{MinAlive: cfg.MinAlive, Parallelism: 1, Seed: seed}, nil)
	return ex.Execute(ctx, from, plan)
}

// topPairs returns the k heaviest affinity edges (the critical business
// service pairs of Figs. 11/12).
func topPairs(p *cluster.Problem, k int) [][2]int {
	es := p.Affinity.Edges()
	idx := make([]int, len(es))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return es[idx[a]].Weight > es[idx[b]].Weight })
	var out [][2]int
	for _, i := range idx {
		if len(out) == k {
			break
		}
		out = append(out, [2]int{es[i].U, es[i].V})
	}
	return out
}

func restoreService(dst, src *cluster.Assignment, s int) {
	for _, m := range dst.MachinesOf(s) {
		dst.Set(s, m, 0)
	}
	for _, m := range src.MachinesOf(s) {
		dst.Set(s, m, src.Get(s, m))
	}
}

func movedService(a, b *cluster.Assignment, s int) bool {
	for _, m := range a.MachinesOf(s) {
		if a.Get(s, m) != b.Get(s, m) {
			return true
		}
	}
	for _, m := range b.MachinesOf(s) {
		if a.Get(s, m) != b.Get(s, m) {
			return true
		}
	}
	return false
}

func overUtilized(p *cluster.Problem, a *cluster.Assignment, threshold float64) bool {
	used := a.UsedResources(p)
	for m := range p.Machines {
		cap := p.Machines[m].Capacity[0]
		if cap > 0 && used[m][0]/cap > threshold {
			return true
		}
	}
	return false
}

// localizedFraction is the share of a pair's traffic served locally.
func localizedFraction(p *cluster.Problem, a *cluster.Assignment, pair [2]int, scenario Scenario) float64 {
	if scenario == OnlyCollocated {
		return 1
	}
	return a.PairGainedAffinity(p, pair[0], pair[1])
}

// measure converts a localized fraction into latency and error rate.
func (lm LatencyModel) measure(localized, remoteShare float64, rng *rand.Rand) PairMetrics {
	rpc := lm.RPCMillis * (1 + lm.Congestion*remoteShare)
	rpc *= 1 + lm.Jitter*rng.NormFloat64()*0.5
	if rpc < lm.IPCMillis {
		rpc = lm.IPCMillis
	}
	ipc := lm.IPCMillis * (1 + 0.05*rng.NormFloat64())
	if ipc < 0.01 {
		ipc = 0.01
	}
	errRemote := lm.ErrRemote * (1 + 0.2*rng.NormFloat64())
	if errRemote < 0 {
		errRemote = 0
	}
	return PairMetrics{
		Latency:   localized*ipc + (1-localized)*rpc,
		ErrorRate: localized*lm.ErrLocal + (1-localized)*errRemote,
	}
}

// clusterRemoteShare is the fraction of total affinity traffic that
// crosses machines — the congestion driver.
func clusterRemoteShare(p *cluster.Problem, a *cluster.Assignment) float64 {
	total := p.Affinity.TotalWeight()
	if total == 0 {
		return 0
	}
	return 1 - a.GainedAffinity(p)/total
}

// weightedMetrics computes the QPS-weighted cluster metric of Fig. 13:
// each pair weighted by its traffic share.
func weightedMetrics(p *cluster.Problem, a *cluster.Assignment, scenario Scenario, lm LatencyModel, remoteShare float64, rng *rand.Rand) PairMetrics {
	var out PairMetrics
	total := p.Affinity.TotalWeight()
	if total == 0 {
		return out
	}
	for _, e := range p.Affinity.Edges() {
		f := 1.0
		if scenario != OnlyCollocated {
			f = a.PairGainedAffinity(p, e.U, e.V)
		}
		m := lm.measure(f, remoteShare, rng)
		w := e.Weight / total
		out.Latency += w * m.Latency
		out.ErrorRate += w * m.ErrorRate
	}
	return out
}
