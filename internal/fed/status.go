package fed

import (
	"hash/fnv"
	"sort"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
)

// ShardInfo summarizes one shard worker for GET /v1/shards.
type ShardInfo struct {
	ID           int    `json:"id"`
	Blocks       []int  `json:"blocks"`
	Services     int    `json:"services"`
	Machines     int    `json:"machines"`
	EventsRouted uint64 `json:"eventsRouted"`
}

// BlockInfo summarizes one compatibility block for GET /v1/shards.
type BlockInfo struct {
	ID          int    `json:"id"`
	Shard       int    `json:"shard"`
	Services    int    `json:"services"`
	Machines    int    `json:"machines"`
	LogHead     uint64 `json:"logHead"`
	Fingerprint string `json:"fingerprint"`
}

// Status is the GET /v1/shards response body.
type Status struct {
	Shards []ShardInfo `json:"shards"`
	Blocks []BlockInfo `json:"blocks"`
}

// Status reports the shard topology: which shard owns each block,
// per-shard ownership and routing volume, and per-block log positions.
func (pl *Pool) Status() *Status {
	st := &Status{}
	shards := make([]ShardInfo, pl.opts.Shards)
	for i := range shards {
		shards[i].ID = i
	}
	for _, b := range pl.blocks {
		b.mu.Lock()
		info := BlockInfo{
			ID:          b.id,
			Shard:       pl.shardOf(b.id),
			Services:    len(b.gSvc),
			Machines:    len(b.gMach),
			LogHead:     b.log().Head(),
			Fingerprint: b.log().Fingerprint(),
		}
		events := b.events
		b.mu.Unlock()
		st.Blocks = append(st.Blocks, info)
		sh := &shards[info.Shard]
		sh.Blocks = append(sh.Blocks, b.id)
		sh.Services += info.Services
		sh.Machines += info.Machines
		sh.EventsRouted += events
	}
	st.Shards = shards
	return st
}

// Stats aggregates the per-block engine states into the incr.Stats
// shape GET /v1/cluster reports: sums where the
// fields are counts, the global denominator for normalized gain, and a
// combined fingerprint (order-independent FNV-1a over the sorted block
// fingerprints — it differs from a single engine's fingerprint of the
// same cluster, since each block hashes its own index space). LogHead
// is the pool journal's head: the global event stream position.
func (pl *Pool) Stats() incr.Stats {
	pl.mu.RLock()
	crossTotal := pl.crossTotal
	pl.mu.RUnlock()

	var out incr.Stats
	var fps []string
	havePartition := true
	baseWeighted := 0.0
	for _, b := range pl.blocks {
		b.mu.Lock()
		s := b.eng.State().Snapshot()
		b.mu.Unlock()
		out.Services += s.Services
		out.Machines += s.Machines
		out.EventsApplied += s.EventsApplied
		out.TotalSubproblems += s.TotalSubproblems
		out.DirtySubproblems += s.DirtySubproblems
		out.DirtyTrivial = out.DirtyTrivial || s.DirtyTrivial
		out.GainedAffinity += s.GainedAffinity
		out.TotalAffinity += s.TotalAffinity
		baseWeighted += s.BaselineGain * s.TotalAffinity
		havePartition = havePartition && s.HavePartition
		fps = append(fps, s.Fingerprint)
	}
	out.HavePartition = havePartition
	out.TotalAffinity += crossTotal
	if out.TotalAffinity > 0 {
		out.NormalizedGain = out.GainedAffinity / out.TotalAffinity
		out.BaselineGain = baseWeighted / out.TotalAffinity
	}
	sort.Strings(fps)
	h := fnv.New64a()
	for _, fp := range fps {
		h.Write([]byte(fp))
		h.Write([]byte{0})
	}
	out.Fingerprint = "fed-" + hex16(h.Sum64())
	pl.jmu.Lock()
	out.LogHead = uint64(len(pl.journal))
	pl.jmu.Unlock()
	return out
}

func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Head returns the pool journal's newest sequence number.
func (pl *Pool) Head() uint64 {
	pl.jmu.Lock()
	defer pl.jmu.Unlock()
	return uint64(len(pl.journal))
}

// Entries returns a copy of at most limit journal entries starting at
// sequence from (1-based): one page of GET /v1/cluster/log.
func (pl *Pool) Entries(from uint64, limit int) []lifetime.EntryJSON {
	pl.jmu.Lock()
	defer pl.jmu.Unlock()
	if from < 1 {
		from = 1
	}
	if from > uint64(len(pl.journal)) || limit < 1 {
		return nil
	}
	page := pl.journal[from-1:]
	if len(page) > limit {
		page = page[:limit]
	}
	return append([]lifetime.EntryJSON(nil), page...)
}

// Assignment assembles the global assignment from the per-block live
// states: the pool-wide view of where every container is, in global
// indices.
func (pl *Pool) Assignment() *cluster.Assignment {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	out := cluster.NewAssignment(len(pl.svcOwner), len(pl.machOwner))
	for _, b := range pl.blocks {
		b.mu.Lock()
		b.eng.State().Assignment().EachPlacement(func(ls, lm, count int) {
			out.Set(b.gSvc[ls], b.gMach[lm], count)
		})
		b.mu.Unlock()
	}
	return out
}
