// Package incr is the incremental re-optimization engine: the subsystem
// that turns the batch RASA pipeline into an online controller. It sits
// on the lifetime event log (package lifetime) as the one source of
// cluster truth, ingests a typed event stream (replica scale-ups,
// machine drains, affinity drift, inventory changes, executor
// actuation), tracks which partition subproblems each logged event
// dirties via a cursor into the log, and answers Propose with a scoped
// delta solve — only the dirty subproblems go back through the
// selector/pool machinery — escalating to the full pipeline when
// the dirty set or the gained-affinity drift crosses a threshold. The
// delta pass merges and plans its migration through the same core
// functions as the full pipeline (core.Settle, core.PlanMigration).
// A proposal leaves the live assignment alone: an executor (package
// exec) actuates it move by move, through the log.
//
// The paper runs RASA as a periodic CronJob that re-solves everything
// (Section III); region-wide deployments answer continuous deltas with
// online re-optimization instead. This package is that layer for this
// reproduction: events in, bounded scoped re-solves out.
package incr
