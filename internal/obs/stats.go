// Solve-stats bridge: a pre-registered bundle of solver metrics fed
// from solve.Stats, shared by the optimization service (per job) and
// the rasad -loop production simulation (per tick).
package obs

import (
	"github.com/cloudsched/rasa/internal/solve"
)

// SolveCollector publishes solve.Stats into a Registry: cumulative
// iteration counters, stop-cause counts, and per-phase latency
// histograms.
type SolveCollector struct {
	pivots      *Counter
	warmPivots  *Counter
	coldPivots  *Counter
	basisPivots *Counter
	nodes       *Counter
	incumbents  *Counter
	columns     *Counter
	rounds      *Counter
	stops       *CounterVec
	phase       *HistogramVec
	wall        *Histogram
}

// NewSolveCollector registers the solver metric families under the
// given prefix (e.g. "rasa") and returns the collector.
func NewSolveCollector(r *Registry, prefix string) *SolveCollector {
	p := prefix
	if p != "" {
		p += "_"
	}
	return &SolveCollector{
		pivots:      r.Counter(p+"solver_simplex_pivots_total", "Simplex pivots across all LP solves."),
		warmPivots:  r.Counter(p+"solver_warm_pivots_total", "Simplex pivots on warm-started (basis-reuse) solves."),
		coldPivots:  r.Counter(p+"solver_cold_pivots_total", "Simplex pivots on cold two-phase solves."),
		basisPivots: r.Counter(p+"solver_basis_pivots_total", "Pivots re-deriving a captured basis before a warm solve (not simplex iterations)."),
		nodes:       r.Counter(p+"solver_bb_nodes_total", "Branch-and-bound nodes explored."),
		incumbents:  r.Counter(p+"solver_incumbents_total", "Integer-feasible incumbents accepted."),
		columns:     r.Counter(p+"solver_columns_total", "Column-generation patterns generated."),
		rounds:      r.Counter(p+"solver_pricing_rounds_total", "CG master/pricing iterations."),
		stops:       r.CounterVec(p+"solve_stop_total", "Solves by stop cause.", "cause"),
		phase:       r.HistogramVec(p+"solve_phase_seconds", "Per-phase solve wall time.", nil, "phase"),
		wall:        r.Histogram(p+"solve_wall_seconds", "Total solve wall time.", nil),
	}
}

// Observe records one solve's stats. Zero-valued phase times (layers
// where the phase does not apply) are not observed, so histograms
// reflect only solves that actually ran the phase.
func (c *SolveCollector) Observe(st solve.Stats) {
	c.pivots.Add(float64(st.SimplexIters))
	c.warmPivots.Add(float64(st.WarmPivots))
	c.coldPivots.Add(float64(st.ColdPivots))
	c.basisPivots.Add(float64(st.BasisPivots))
	c.nodes.Add(float64(st.Nodes))
	c.incumbents.Add(float64(st.Incumbents))
	c.columns.Add(float64(st.Columns))
	c.rounds.Add(float64(st.PricingRounds))
	c.stops.With(st.Stop.String()).Inc()
	if st.MasterTime > 0 {
		c.phase.With("master").Observe(st.MasterTime.Seconds())
	}
	if st.PricingTime > 0 {
		c.phase.With("pricing").Observe(st.PricingTime.Seconds())
	}
	if st.RoundingTime > 0 {
		c.phase.With("rounding").Observe(st.RoundingTime.Seconds())
	}
	if st.Wall > 0 {
		c.wall.Observe(st.Wall.Seconds())
	}
}
