// Package churn generates replayable churn — per-tick batches of
// lifetime events — against generated workload clusters: the synthetic
// stand-in for the live region's deploy/scale/drain stream that the
// incremental engine consumes.
package churn

import (
	"fmt"
	"math/rand"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/workload"
)

// Config tunes Generate.
type Config struct {
	// Events is the total number of events to emit (required).
	Events int
	// PerTick groups events into re-optimization ticks (default 5): all
	// events of one tick form one Apply batch between Reoptimize calls.
	PerTick int
	// Seed drives the event sampling; default the cluster's own seed.
	Seed int64
	// ServiceOnly drops machine-level events (drain/add) from the mix,
	// redistributing their weight onto replica scaling. On benchmark-
	// scale clusters one drain touches services in most subproblems, so
	// machine events measure full-pipeline escalation rather than the
	// scoped delta path; the incremental benchmark sets this.
	ServiceOnly bool
}

// RedeployConfig tunes Redeploy.
type RedeployConfig struct {
	// Ticks is how many driver ticks to cover; PerTick is how many
	// services are redeployed per tick.
	Ticks   int
	PerTick int
	// Seed drives the service sampling (required for reproducibility —
	// there is no cluster to default from).
	Seed int64
}

// Redeploy emits the production simulator's churn schedule, one event
// batch per tick (a tick's batch may be empty): each tick, PerTick
// services are drawn and scale-bounced — halved, then restored to
// their SLA target — which strips half their containers and leaves a
// deficit the default scheduler refills wherever it likes, eroding
// collocation exactly like an owner-driven rolling redeploy.
//
// The schedule is part of prodsim's like-for-like contract between
// scenarios: exactly one rng draw is consumed per churned service,
// including single-replica services that cannot bounce (their draw
// emits nothing). Bounces always restore the original target, so the
// shadow replica counts never drift from the live cluster's.
func Redeploy(p *cluster.Problem, cfg RedeployConfig) [][]lifetime.Event {
	rng := rand.New(rand.NewSource(cfg.Seed))
	replicas := make([]int, p.N())
	for s := range p.Services {
		replicas[s] = p.Services[s].Replicas
	}
	batches := make([][]lifetime.Event, cfg.Ticks)
	for tick := range batches {
		for c := 0; c < cfg.PerTick; c++ {
			s := rng.Intn(len(replicas))
			d := replicas[s]
			bounce := d / 2
			if bounce < 1 {
				continue
			}
			batches[tick] = append(batches[tick],
				lifetime.ScaleService{Service: s, Replicas: bounce},
				lifetime.ScaleService{Service: s, Replicas: d},
			)
		}
	}
	return batches
}

// Churn event mix: mostly replica scaling (owner redeploys), some
// affinity drift, occasional machine drains and inventory adds, rare
// service retirement — the event profile of Section III's live region
// between CronJob runs.
const (
	churnFracScale    = 0.70
	churnFracAffinity = 0.15
	churnFracDrain    = 0.08
	churnFracAdd      = 0.05
	// remainder: removeService
)

// Generate emits churn against the generated cluster as one event batch
// per tick: cfg.PerTick events each, the last batch possibly shorter.
// The generator tracks a shadow of the evolving state (replica targets,
// live service/machine counts, remaining capacity) so every event is
// valid when the batches are applied in order — including index shifts
// after service removals — without mutating the cluster itself.
// Drains are capped so remaining capacity always covers total demand
// with headroom, keeping the churned cluster solvable.
func Generate(c *workload.Cluster, cfg Config) ([][]lifetime.Event, error) {
	if cfg.Events <= 0 {
		return nil, fmt.Errorf("workload: churn event count must be positive")
	}
	if cfg.PerTick <= 0 {
		cfg.PerTick = 5
	}
	if cfg.Seed == 0 {
		cfg.Seed = c.Preset.Seed*31 + 17
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := c.Problem

	// Shadow state.
	replicas := make([]int, p.N())
	requests := make([]float64, p.N()) // primary-resource request per container
	demand := 0.0
	for s := range p.Services {
		replicas[s] = p.Services[s].Replicas
		requests[s] = p.Services[s].Request[0]
		demand += float64(replicas[s]) * requests[s]
	}
	machCap := make([]float64, p.M()) // primary-resource capacity; 0 = drained
	capacity := 0.0
	fullCaps := make([]cluster.Resources, p.M())
	for m := range p.Machines {
		machCap[m] = p.Machines[m].Capacity[0]
		capacity += machCap[m]
		fullCaps[m] = p.Machines[m].Capacity
	}
	minServices := p.N() * 4 / 5
	if minServices < 2 {
		minServices = 2
	}
	avgWeight := 1.0
	if m := p.Affinity.M(); m > 0 {
		avgWeight = p.Affinity.TotalWeight() / float64(m)
	}

	fracScale, fracAffinity := churnFracScale, churnFracAffinity
	fracDrain, fracAdd := churnFracDrain, churnFracAdd
	if cfg.ServiceOnly {
		fracScale += fracDrain + fracAdd
		fracDrain, fracAdd = 0, 0
	}

	batches := make([][]lifetime.Event, (cfg.Events+cfg.PerTick-1)/cfg.PerTick)
	added := 0
	for i := 0; i < cfg.Events; i++ {
		tick := i / cfg.PerTick
		n := len(replicas)
		var ev lifetime.Event
		switch r := rng.Float64(); {
		case r < fracScale:
			s := rng.Intn(n)
			d := replicas[s]
			target := int(float64(d) * (0.7 + 0.6*rng.Float64()))
			if target == d {
				target = d + 1
			}
			if target < 1 {
				target = 1
			}
			// Keep demand inside remaining capacity headroom.
			if nd := demand + float64(target-d)*requests[s]; nd > 0.85*capacity {
				target = d
				if d > 1 {
					target = d - 1
				}
			}
			demand += float64(target-replicas[s]) * requests[s]
			replicas[s] = target
			ev = lifetime.ScaleService{Service: s, Replicas: target}
		case r < fracScale+fracAffinity:
			a := rng.Intn(n)
			b := rng.Intn(n)
			if a == b {
				b = (b + 1) % n
			}
			w := avgWeight * (0.25 + 1.5*rng.Float64())
			ev = lifetime.UpdateAffinity{A: a, B: b, Weight: w}
		case r < fracScale+fracAffinity+fracDrain:
			// Drain only while the remaining fleet keeps ~20% headroom
			// over demand; otherwise fall back to a scale-down.
			m := rng.Intn(len(machCap))
			if machCap[m] > 0 && capacity-machCap[m] > 1.2*demand {
				capacity -= machCap[m]
				machCap[m] = 0
				ev = lifetime.DrainMachine{Machine: m}
			} else {
				s := rng.Intn(n)
				if replicas[s] > 1 {
					replicas[s]--
					demand -= requests[s]
				}
				ev = lifetime.ScaleService{Service: s, Replicas: replicas[s]}
			}
		case r < fracScale+fracAffinity+fracDrain+fracAdd:
			// Clone a random original machine spec for the new capacity.
			src := fullCaps[rng.Intn(len(fullCaps))]
			machCap = append(machCap, src[0])
			fullCaps = append(fullCaps, src)
			capacity += src[0]
			added++
			ev = lifetime.AddMachine{
				Name:     fmt.Sprintf("churn-m%d", added),
				Capacity: src.Clone(),
				Spec:     -1,
			}
		default:
			if n <= minServices {
				// Fleet floor reached: scale something instead.
				s := rng.Intn(n)
				replicas[s]++
				demand += requests[s]
				ev = lifetime.ScaleService{Service: s, Replicas: replicas[s]}
				break
			}
			s := rng.Intn(n)
			demand -= float64(replicas[s]) * requests[s]
			replicas = append(replicas[:s], replicas[s+1:]...)
			requests = append(requests[:s], requests[s+1:]...)
			ev = lifetime.RemoveService{Service: s}
		}
		batches[tick] = append(batches[tick], ev)
	}
	return batches, nil
}
