package fed

import (
	"fmt"

	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
)

// Rebalance reports one shard-map resize: which blocks changed owner
// and whether every reassigned block's log replay reproduced its
// fingerprint.
type Rebalance struct {
	Version     int   `json:"version"`
	FromShards  int   `json:"fromShards"`
	ToShards    int   `json:"toShards"`
	MovedBlocks []int `json:"movedBlocks"`
	// ReplayedEvents is the total log length replayed into new owners.
	ReplayedEvents int `json:"replayedEvents"`
	// FingerprintsPreserved is true when every moved block's replayed
	// state hashed identically to the original (Resize fails otherwise,
	// so a returned report always has it true; the field exists for the
	// bench artifact).
	FingerprintsPreserved bool `json:"fingerprintsPreserved"`
}

// Resize changes the shard count: the versioned block-to-shard map is
// recomputed by rendezvous hashing (so only blocks whose argmax shard
// changed move), and each moved block is handed to its new owner by
// exporting its log segment and replaying it from the block's initial
// snapshot — the new owner's engine is rebuilt purely from the log,
// exactly as a remote shard joining the federation would bootstrap. A
// replay that does not reproduce the block's live fingerprint aborts
// the resize with the old map intact.
//
// The rebuilt engine state has no partition baseline (partitions are
// derived, not logged), so a moved block's next Propose escalates to a
// full pass — the same bootstrap contract as incr.FromLog.
func (pl *Pool) Resize(shards int) (*Rebalance, error) {
	if shards < 1 {
		return nil, fmt.Errorf("fed: shard count %d must be positive", shards)
	}
	pl.solveMu.Lock()
	defer pl.solveMu.Unlock()
	pl.mu.Lock()
	defer pl.mu.Unlock()

	old := pl.shardMap
	next := newShardMap(old.version+1, shards, len(pl.blocks))
	rep := &Rebalance{
		Version:               next.version,
		FromShards:            old.shards,
		ToShards:              shards,
		FingerprintsPreserved: true,
	}

	type swap struct {
		b   *block
		eng *incr.Engine
	}
	var swaps []swap
	for id, b := range pl.blocks {
		if old.owner[id] == next.owner[id] {
			continue
		}
		b.mu.Lock()
		live := b.log().Fingerprint()
		tr := b.log().Export(b.init, 0, "", nil)
		nl, err := lifetime.Replay(tr)
		b.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("fed: rebalance block %d: replay: %w", id, err)
		}
		if got := nl.Fingerprint(); got != live {
			return nil, fmt.Errorf("fed: rebalance block %d: replayed fingerprint %s != live %s", id, got, live)
		}
		rep.MovedBlocks = append(rep.MovedBlocks, id)
		rep.ReplayedEvents += len(tr.Events)
		swaps = append(swaps, swap{b: b, eng: incr.New(incr.FromLog(nl), pl.opts.Engine, pl.reg)})
	}
	// Every moved block replayed cleanly: install the new engines and
	// the new map atomically with respect to event routing.
	for _, sw := range swaps {
		sw.b.mu.Lock()
		sw.b.eng = sw.eng
		sw.b.mu.Unlock()
	}
	pl.shardMap = next
	pl.m.topology(shards, len(pl.blocks), next.version)
	return rep, nil
}
