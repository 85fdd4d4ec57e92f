package incr

import (
	"time"

	"github.com/cloudsched/rasa/internal/obs"
)

// metrics instruments the incremental engine. A nil *metrics is valid
// and drops every observation, so the engine works without a registry.
type metrics struct {
	events      *obs.CounterVec // rasa_incr_events_total{type}
	reopts      *obs.CounterVec // rasa_incr_reoptimize_total{mode}
	escalations *obs.CounterVec // rasa_incr_escalations_total{reason}
	ratio       *obs.Histogram  // rasa_incr_dirty_ratio
	deltaSecs   *obs.Histogram  // rasa_incr_delta_solve_seconds
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	return &metrics{
		events: reg.CounterVec("rasa_incr_events_total",
			"Cluster state events applied, by event type.", "type"),
		reopts: reg.CounterVec("rasa_incr_reoptimize_total",
			"Propose passes, by path taken (noop, delta, full).", "mode"),
		escalations: reg.CounterVec("rasa_incr_escalations_total",
			"Full-pipeline runs, by the reason a delta pass was not enough.", "reason"),
		ratio: reg.Histogram("rasa_incr_dirty_ratio",
			"Fraction of partition subproblems dirty at each delta pass.",
			[]float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1}),
		deltaSecs: reg.Histogram("rasa_incr_delta_solve_seconds",
			"Wall time of delta passes.",
			nil),
	}
}

func (m *metrics) event(kind string) {
	if m == nil {
		return
	}
	m.events.With(kind).Inc()
}

func (m *metrics) reoptimize(mode Mode) {
	if m == nil {
		return
	}
	m.reopts.With(mode.String()).Inc()
}

func (m *metrics) escalation(reason string) {
	if m == nil {
		return
	}
	m.escalations.With(reason).Inc()
}

func (m *metrics) dirtyRatio(r float64) {
	if m == nil {
		return
	}
	m.ratio.Observe(r)
}

func (m *metrics) deltaSolve(d time.Duration) {
	if m == nil {
		return
	}
	m.deltaSecs.Observe(d.Seconds())
}
