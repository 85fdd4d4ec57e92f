// Package fed is the federation layer: a block pool that deals
// compatibility blocks round-robin onto N shard workers (block id mod
// N), each block owning its own incremental engine and lifetime log
// segment. An execution proposes per block and then actuates every
// block's plan at once through one migration executor per block, whose
// admission check guards each command's SLA floor and capacity. A shard
// worker is only a unit of concurrency: it proposes its blocks one
// after another, so Shards bounds how many block proposals run at once.
//
// The load-bearing invariant is the paper's stage-3 decomposition
// (Section IV-B3): no service of one compatibility block can ever be
// placed on a machine of another, so blocks re-optimize independently,
// per-block floor and capacity validity is global validity, and their
// plans union into a valid global plan. partition.Blocks
// computes the block structure; the pool owns the routing tables from
// global service/machine indices to (block, local index) and keeps them
// consistent across index-shifting events like RemoveService.
package fed

import (
	"fmt"
	"sync"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/graph"
	"github.com/cloudsched/rasa/internal/incr"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/obs"
	"github.com/cloudsched/rasa/internal/partition"
)

// block is one compatibility block hosted by the pool: a self-contained
// sub-cluster with its own engine and log segment. The mutex serializes
// event routing against an execution; the pool's table lock orders
// strictly before any block lock.
type block struct {
	id int
	mu sync.Mutex
	// gSvc / gMach map local indices back to global ones. The pool's
	// svcOwner/svcLocal (and machine twins) are the inverse maps.
	gSvc   []int
	gMach  []int
	eng    *incr.Engine
	events uint64 // events routed to this block
}

func (b *block) log() *lifetime.Log { return b.eng.State().Log() }

// sliceBlocks cuts the global problem and assignment into one
// self-contained sub-cluster per compatibility block. Capacities and
// requests are deep-copied so per-block lifetime events (drains, scale)
// never alias the caller's slices. Cross-block affinity edges cannot be
// gained (their endpoints never share a machine) and are excluded from
// every block graph; their total weight is returned so the pool can
// report normalized gain against the true global denominator.
func sliceBlocks(p *cluster.Problem, a *cluster.Assignment, blocks []partition.Block, opts incr.Options, reg *obs.Registry) ([]*block, float64, error) {
	n, m := p.N(), p.M()
	svcOwner := make([]int, n)
	svcLocal := make([]int, n)
	machOwner := make([]int, m)
	machLocal := make([]int, m)
	for i := range svcOwner {
		svcOwner[i] = -1
	}
	for i := range machOwner {
		machOwner[i] = -1
	}
	for id, blk := range blocks {
		for ls, gs := range blk.Services {
			svcOwner[gs] = id
			svcLocal[gs] = ls
		}
		for lm, gm := range blk.Machines {
			machOwner[gm] = id
			machLocal[gm] = lm
		}
	}

	probs := make([]*cluster.Problem, len(blocks))
	assigns := make([]*cluster.Assignment, len(blocks))
	for id, blk := range blocks {
		bp := &cluster.Problem{ResourceNames: p.ResourceNames}
		for _, gs := range blk.Services {
			s := p.Services[gs]
			bp.Services = append(bp.Services, cluster.Service{
				Name: s.Name, Replicas: s.Replicas, Request: s.Request.Clone(),
			})
		}
		for _, gm := range blk.Machines {
			mach := p.Machines[gm]
			bp.Machines = append(bp.Machines, cluster.Machine{
				Name: mach.Name, Capacity: mach.Capacity.Clone(), Spec: mach.Spec,
			})
		}
		bp.Affinity = graph.New(len(blk.Services))
		for _, rule := range p.AntiAffinity {
			var local []int
			for _, gs := range rule.Services {
				if svcOwner[gs] == id {
					local = append(local, svcLocal[gs])
				}
			}
			if len(local) > 0 {
				bp.AntiAffinity = append(bp.AntiAffinity, cluster.AntiAffinityRule{
					Services: local, MaxPerHost: rule.MaxPerHost,
				})
			}
		}
		// Preserve nil-ness of schedulability rows: an unrestricted
		// service must stay unrestricted so it gains future AddMachine
		// capacity exactly as it would under a single engine.
		if p.Schedulable != nil {
			rows := make([]cluster.Bitmap, len(blk.Services))
			any := false
			for ls, gs := range blk.Services {
				if p.Schedulable[gs] == nil {
					continue
				}
				bm := cluster.NewBitmap(len(blk.Machines))
				for lm, gm := range blk.Machines {
					if p.Schedulable[gs].Get(gm) {
						bm.Set(lm)
					}
				}
				rows[ls] = bm
				any = true
			}
			if any {
				bp.Schedulable = rows
			}
		}
		probs[id] = bp
		assigns[id] = cluster.NewAssignment(len(blk.Services), len(blk.Machines))
	}

	// One pass over the affinity graph: intra-block edges project into
	// the owner's local graph, cross-block weight accumulates.
	var crossTotal float64
	for _, e := range p.Affinity.Edges() {
		if svcOwner[e.U] == svcOwner[e.V] && svcOwner[e.U] >= 0 {
			probs[svcOwner[e.U]].Affinity.AddEdge(svcLocal[e.U], svcLocal[e.V], e.Weight)
		} else {
			crossTotal += e.Weight
		}
	}

	var sliceErr error
	if a != nil {
		a.EachPlacement(func(s, mach, count int) {
			if sliceErr != nil {
				return
			}
			bs, bm := svcOwner[s], machOwner[mach]
			if bs != bm {
				sliceErr = fmt.Errorf("fed: placement of service %d on machine %d crosses blocks %d and %d", s, mach, bs, bm)
				return
			}
			assigns[bs].Set(svcLocal[s], machLocal[mach], count)
		})
	}
	if sliceErr != nil {
		return nil, 0, sliceErr
	}

	out := make([]*block, len(blocks))
	for id := range blocks {
		st, err := incr.NewState(probs[id], assigns[id])
		if err != nil {
			return nil, 0, fmt.Errorf("fed: block %d: %w", id, err)
		}
		out[id] = &block{
			id:    id,
			gSvc:  append([]int(nil), blocks[id].Services...),
			gMach: append([]int(nil), blocks[id].Machines...),
			eng:   incr.New(st, opts, reg),
		}
	}
	return out, crossTotal, nil
}
