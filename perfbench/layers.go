package main

import (
	"time"

	"github.com/cloudsched/rasa/internal/pool"
	"github.com/cloudsched/rasa/internal/solve"
)

// perLayer lists every per-layer metric with its unit, in report order.
// A workload that does not exercise a layer reports 0 for its metrics
// (README.md names which workload moves which).
var perLayer = []struct{ name, unit string }{
	{"lp.pivots", "count"},
	{"lp.pivots_per_s", "1/s"},
	{"lp.warm_share", "ratio"},
	{"mip.nodes", "count"},
	{"mip.nodes_per_s", "1/s"},
	{"cg.master_ms", "ms"},
	{"cg.pricing_ms", "ms"},
	{"cg.rounding_ms", "ms"},
	{"cg.rounds", "count"},
	{"cg.columns", "count"},
	{"pool.busy_ms", "ms"},
	{"pool.critical_ms", "ms"},
	{"pool.deadline_share", "ratio"},
	{"partition.ms", "ms"},
	{"partition.subproblems", "count"},
	{"selector.mip_share", "ratio"},
	{"sched.merge_ms", "ms"},
	{"migrate.ms", "ms"},
	{"migrate.steps", "count"},
	{"incr.dirty_ratio", "ratio"},
	{"fed.blocks_touched", "count"},
	{"fed.execute_ms", "ms"},
	{"exec.commands", "count"},
	{"exec.waves", "count"},
	{"lifetime.entries_per_op", "count"},
	{"snapshot.decode_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.result_bytes", "bytes"},
	{"server.overhead_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

// layerMetrics fills every per-layer metric from vals (missing ones are
// 0 — layers the workload does not exercise).
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		out[l.name] = metric{vals[l.name], l.unit}
	}
	return out
}

// subSolve is one subproblem solve as the solver layers report it.
type subSolve struct {
	mip  bool
	wall time.Duration
	stop solve.StopCause
}

func subSolves(results []pool.Result) []subSolve {
	out := make([]subSolve, len(results))
	for i, r := range results {
		out[i] = subSolve{mip: r.Algorithm == pool.MIP, wall: r.Stats.Wall, stop: r.Stats.Stop}
	}
	return out
}

// solverAcc sums the solver-layer work of many optimization passes.
type solverAcc struct {
	ops                          int
	pivots, warm, nodes          float64
	columns, rounds              float64
	masterMS, pricingMS, roundMS float64
	busyMS, criticalMS           float64
	subs, deadlineSubs, mipSubs  float64
	partitionMS, mergeMS         float64
	migrateMS, steps             float64
}

// addPass records one pass: its aggregate solver stats and its
// per-subproblem solves.
func (a *solverAcc) addPass(total solve.Stats, subs []subSolve) {
	a.ops++
	a.pivots += float64(total.SimplexIters)
	a.warm += float64(total.WarmPivots)
	a.nodes += float64(total.Nodes)
	a.columns += float64(total.Columns)
	a.rounds += float64(total.PricingRounds)
	a.masterMS += ms(total.MasterTime)
	a.pricingMS += ms(total.PricingTime)
	a.roundMS += ms(total.RoundingTime)
	var critical time.Duration
	for _, s := range subs {
		a.subs++
		a.busyMS += ms(s.wall)
		if s.wall > critical {
			critical = s.wall
		}
		if s.stop == solve.Deadline {
			a.deadlineSubs++
		}
		if s.mip {
			a.mipSubs++
		}
	}
	a.criticalMS += ms(critical)
}

// values returns the solver-layer metrics as per-op means and ratios.
func (a *solverAcc) values() map[string]float64 {
	n := float64(a.ops)
	return map[string]float64{
		"lp.pivots":             share(a.pivots, n),
		"lp.pivots_per_s":       share(a.pivots, a.busyMS/1000),
		"lp.warm_share":         share(a.warm, a.pivots),
		"mip.nodes":             share(a.nodes, n),
		"mip.nodes_per_s":       share(a.nodes, a.busyMS/1000),
		"cg.master_ms":          share(a.masterMS, n),
		"cg.pricing_ms":         share(a.pricingMS, n),
		"cg.rounding_ms":        share(a.roundMS, n),
		"cg.rounds":             share(a.rounds, n),
		"cg.columns":            share(a.columns, n),
		"pool.busy_ms":          share(a.busyMS, n),
		"pool.critical_ms":      share(a.criticalMS, n),
		"pool.deadline_share":   share(a.deadlineSubs, a.subs),
		"partition.ms":          share(a.partitionMS, n),
		"partition.subproblems": share(a.subs, n),
		"selector.mip_share":    share(a.mipSubs, a.subs),
		"sched.merge_ms":        share(a.mergeMS, n),
		"migrate.ms":            share(a.migrateMS, n),
		"migrate.steps":         share(a.steps, n),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
