package fed

import (
	"strconv"

	"github.com/cloudsched/rasa/internal/obs"
)

// metrics instruments the shard pool. A nil *metrics is valid and drops
// every observation, so the pool works without a registry.
type metrics struct {
	routed   *obs.CounterVec // rasa_fed_events_routed_total{shard}
	reopts   *obs.CounterVec // rasa_fed_reoptimize_total{shard,mode}
	shards   *obs.Gauge      // rasa_fed_shards
	blocks   *obs.Gauge      // rasa_fed_blocks
	headroom *obs.Gauge      // rasa_exec_min_sla_headroom, set last from the aggregate
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	return &metrics{
		routed: reg.CounterVec("rasa_fed_events_routed_total",
			"Churn events routed to shard workers, by owning shard.", "shard"),
		reopts: reg.CounterVec("rasa_fed_reoptimize_total",
			"Per-block proposals of an execution, by owning shard and path taken.", "shard", "mode"),
		shards: reg.Gauge("rasa_fed_shards",
			"Shard workers in the pool."),
		blocks: reg.Gauge("rasa_fed_blocks",
			"Compatibility blocks owned by the pool."),
		headroom: reg.Gauge("rasa_exec_min_sla_headroom",
			"Tightest alive-minus-floor slack observed at any delete admission in the last run (-1: no deletes)."),
	}
}

func shardLabel(s int) string { return strconv.Itoa(s) }

func (m *metrics) event(shard int) {
	if m == nil {
		return
	}
	m.routed.With(shardLabel(shard)).Inc()
}

func (m *metrics) reoptimize(shard int, mode string) {
	if m == nil {
		return
	}
	m.reopts.With(shardLabel(shard), mode).Inc()
}

func (m *metrics) topology(shards, blocks int) {
	if m == nil {
		return
	}
	m.shards.Set(float64(shards))
	m.blocks.Set(float64(blocks))
}

func (m *metrics) execHeadroom(h int) {
	if m == nil {
		return
	}
	m.headroom.Set(float64(h))
}
