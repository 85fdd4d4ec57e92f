package exec

import (
	"strings"
	"time"

	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/obs"
)

// metrics is the executor's obs surface. A nil *metrics (no registry)
// disables everything; every method is nil-safe, mirroring incr.
type metrics struct {
	commands  *obs.CounterVec
	retriesC  *obs.Counter
	backoff   *obs.Histogram
	replans   *obs.CounterVec
	runs      *obs.CounterVec
	headroomG *obs.Gauge
	floor     *obs.Counter
	deaths    *obs.Counter
	wasted    *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	return &metrics{
		commands: reg.CounterVec("rasa_exec_commands_total",
			"Migration commands processed by the executor, by op and outcome.",
			"op", "outcome"),
		retriesC: reg.Counter("rasa_exec_retries_total",
			"Command re-attempts after transient fabric failures."),
		backoff: reg.Histogram("rasa_exec_backoff_seconds",
			"Backoff sleep per command (summed over its retries).",
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}),
		replans: reg.CounterVec("rasa_exec_replans_total",
			"Checkpoint-and-re-plan escalations, by first divergence kind.",
			"reason"),
		runs: reg.CounterVec("rasa_exec_runs_total",
			"Execution runs, by terminal outcome (a sharded execution counts one run per compatibility block).",
			"outcome"),
		headroomG: reg.Gauge("rasa_exec_min_sla_headroom",
			"Tightest alive-minus-floor slack observed at any delete admission in the last run (-1: no deletes)."),
		floor: reg.Counter("rasa_exec_floor_violations_total",
			"Executor-issued deletes that landed below the SLA floor (zero by construction)."),
		deaths: reg.Counter("rasa_exec_machine_deaths_total",
			"Machines written off during execution runs."),
		wasted: reg.Counter("rasa_exec_wasted_moves_total",
			"Executed commands beyond the minimal entry-to-final transition."),
	}
}

func (m *metrics) command(op migrate.Op, outcome string) {
	if m == nil {
		return
	}
	m.commands.With(op.String(), outcome).Inc()
}

func (m *metrics) retries(n int, backoff time.Duration) {
	if m == nil {
		return
	}
	m.retriesC.Add(float64(n))
	if n > 0 {
		m.backoff.Observe(backoff.Seconds())
	}
}

func (m *metrics) replan(reason string) {
	if m == nil {
		return
	}
	m.replans.With(replanKind(reason)).Inc()
}

// replanKind collapses a free-form divergence reason to a stable label.
func replanKind(reason string) string {
	switch {
	case strings.Contains(reason, "died"):
		return "machine-death"
	case strings.Contains(reason, "skipped"):
		return "admission-skip"
	default:
		return "command-failure"
	}
}

func (m *metrics) headroom(h int) {
	if m == nil {
		return
	}
	m.headroomG.Set(float64(h))
}

func (m *metrics) run(rep *Report) {
	if m == nil {
		return
	}
	m.runs.With(string(rep.Outcome)).Inc()
	m.floor.Add(float64(rep.FloorViolations))
	m.deaths.Add(float64(len(rep.DeadMachines)))
	m.wasted.Add(float64(rep.WastedMoves))
}
