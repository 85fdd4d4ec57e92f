package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/lifetime"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/workload"
)

// churn-exec: a rasad -serve -shards 2 daemon holding a four-zone
// M1-shaped cluster session (four compatibility blocks over two shard
// workers). Seed-drawn churn batches are due on a fixed schedule; each
// is POST /v1/cluster/events then POST /v1/cluster/execute on a fabric
// whose every command takes churnActuation, long-polled to done.
// Latency runs from the batch's due time to execution done.

const (
	churnInterval = 150 * time.Millisecond
	// churnBounceSize is how many containers each redeploy evicts and
	// re-creates.
	churnBounceSize = 1
	// churnActuation is the fabric's time to apply one command. Blocks
	// execute one after another and a block's creates form one wave, so
	// a batch spends one actuation per block it touches.
	churnActuation = 30 * time.Millisecond
	// churnBudget is the session's full-pipeline budget, far above what
	// a pass needs: the batches dirty no subproblem, so no pass solves.
	churnBudget = "20s"
	// churnTailQ leaves 20 of the 200 batches of a 30 s run beyond it.
	churnTailQ = 0.90
)

// churnShape is the session's cluster: M1 split into four zones. The
// cluster is the same for every workload seed; the seed draws the churn.
var churnShape = workload.Preset{Name: "M1Z4", Services: 590, Containers: 2564, Machines: 98, Beta: 1.6, AffinityFraction: 0.55, Zones: 4, Utilization: 0.55, Seed: 101}

// churnInput is the installed snapshot, the churn batches in order, and
// the containers every batch's execution must create.
type churnInput struct {
	snap    *snapshot.Snapshot
	install []byte
	batches [][]lifetime.EventJSON
	creates int
}

func churnInputs(seed int64, batches int) (*churnInput, error) {
	c, err := workload.Generate(churnShape)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", churnShape.Name, err)
	}
	in := &churnInput{snap: snapshot.FromCluster(c.Problem, c.Original)}
	pools := redeployPools(c.Problem, c.Original)
	in.batches = redeploys(c.Problem, pools, seed, batches)
	in.creates = len(pools) * churnBounceSize
	in.install, err = json.Marshal(map[string]any{
		"snapshot": in.snap,
		"options":  map[string]any{"budget": churnBudget},
	})
	return in, err
}

// redeployPools lists, per compatibility block, the services a batch may
// redeploy: fully placed services outside the affinity graph. Services
// with affinity are left alone on purpose: re-solving the subproblem
// they dirty is heavy-tailed branch and bound, which would make the
// per-batch cost a property of the draw rather than of the cluster path.
// A block with containers still waiting for a machine is skipped too: a
// slot a redeploy frees there goes to a waiting container, so the
// redeployed service would stay one short.
func redeployPools(p *cluster.Problem, current *cluster.Assignment) [][]int {
	var pools [][]int
	for _, b := range partition.Blocks(p) {
		var pool []int
		waiting := 0
		for _, s := range b.Services {
			svc := p.Services[s]
			waiting += svc.Replicas - current.Placed(s)
			if p.Affinity.Degree(s) == 0 && svc.Replicas > churnBounceSize && current.Placed(s) == svc.Replicas {
				pool = append(pool, s)
			}
		}
		if waiting == 0 && len(pool) > 0 {
			pools = append(pools, pool)
		}
	}
	return pools
}

// redeploys draws the churn: each batch is a rolling redeploy of one
// service from every pool — scaled down by churnBounceSize containers and
// back to its target — so every batch touches the same blocks and asks
// the session to create the same number of containers.
func redeploys(p *cluster.Problem, pools [][]int, seed int64, n int) [][]lifetime.EventJSON {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]lifetime.EventJSON, n)
	for k := range out {
		for _, pool := range pools {
			s := pool[rng.Intn(len(pool))]
			d := p.Services[s].Replicas
			out[k] = append(out[k],
				lifetime.ToJSON(lifetime.ScaleService{Service: s, Replicas: d - churnBounceSize}),
				lifetime.ToJSON(lifetime.ScaleService{Service: s, Replicas: d}))
		}
	}
	return out
}

// clusterStats is the part of the session stats the benchmark reads.
type clusterStats struct {
	TotalSubproblems int     `json:"totalSubproblems"`
	DirtySubproblems int     `json:"dirtySubproblems"`
	NormalizedGain   float64 `json:"normalizedGain"`
	LogHead          uint64  `json:"logHead"`
}

// execReport is the part of an execution report the benchmark reads.
type execReport struct {
	Outcome         string  `json:"outcome"`
	Error           string  `json:"error"`
	PlannedMoves    int     `json:"plannedMoves"`
	Steps           int     `json:"steps"`
	Commands        int     `json:"commands"`
	Executed        int     `json:"executed"`
	Failed          int     `json:"failed"`
	Skipped         int     `json:"skipped"`
	FloorViolations int     `json:"floorViolations"`
	NormAchieved    float64 `json:"normAchieved"`
	Elapsed         string  `json:"elapsed"`
}

type shardsView struct {
	Blocks []struct {
		ID      int    `json:"id"`
		LogHead uint64 `json:"logHead"`
	} `json:"blocks"`
}

// churnSession drives one daemon: it remembers the journal head so every
// batch can be checked to land exactly. The warm-up batch also runs each
// block's first full pass, on the instant fabric; once it has executed,
// warm is set and gain holds the cluster's gain, which no later batch may
// change, and every later batch must create exactly creates containers.
type churnSession struct {
	d       *daemon
	head    uint64
	creates int
	warm    bool
	gain    float64
	sent    []lifetime.EventJSON
	// Traced runs only: the block log heads after the previous op.
	blocks map[int]uint64
	layer  churnAcc
}

type churnAcc struct {
	ops                             int
	dirtyRatio, touched, entries    float64
	executeMS, commands, waves, ovh float64
}

func (a *churnAcc) values() map[string]float64 {
	n := float64(a.ops)
	return map[string]float64{
		"incr.dirty_ratio":        share(a.dirtyRatio, n),
		"fed.blocks_touched":      share(a.touched, n),
		"lifetime.entries_per_op": share(a.entries, n),
		"fed.execute_ms":          share(a.executeMS, n),
		"exec.commands":           share(a.commands, n),
		"exec.waves":              share(a.waves, n),
		"server.overhead_ms":      share(a.ovh, n),
	}
}

func startChurnSession(rasad string, in *churnInput) (*churnSession, error) {
	d, err := startDaemon(rasad, "-shards", "2")
	if err != nil {
		return nil, err
	}
	s := &churnSession{d: d, creates: in.creates}
	var st struct {
		Stats clusterStats `json:"stats"`
	}
	if _, err := d.call("POST", "/v1/cluster", in.install, &st); err != nil {
		d.stop()
		return nil, fmt.Errorf("install cluster: %w", err)
	}
	s.head = st.Stats.LogHead
	return s, nil
}

// actuated is the execute request of a timed batch: a fabric on which
// every command takes churnActuation and none fails.
var actuated = []byte(fmt.Sprintf(`{"latency":%q}`, churnActuation.String()))

func (s *churnSession) blockHeads() (map[int]uint64, error) {
	var v shardsView
	if _, err := s.d.call("GET", "/v1/shards", nil, &v); err != nil {
		return nil, fmt.Errorf("shards: %w", err)
	}
	out := make(map[int]uint64, len(v.Blocks))
	for _, b := range v.Blocks {
		out[b.ID] = b.LogHead
	}
	return out, nil
}

// op applies one batch and executes it, checking every answer. With
// trace it also reads the session's dirty ratio and the block log heads
// around the op.
func (s *churnSession) op(batch []lifetime.EventJSON, trace bool) (outcome, string, *execReport) {
	body, err := json.Marshal(map[string]any{"events": batch})
	if err != nil {
		return opError, err.Error(), nil
	}
	var applied struct {
		Applied int          `json:"applied"`
		Stats   clusterStats `json:"stats"`
	}
	if _, err := s.d.call("POST", "/v1/cluster/events", body, &applied); err != nil {
		return classify(err), "events: " + err.Error(), nil
	}
	s.sent = append(s.sent, batch...)
	if applied.Applied != len(batch) || applied.Stats.LogHead != s.head+uint64(len(batch)) {
		return opCheck, fmt.Sprintf("events: applied %d of %d, log head %d -> %d", applied.Applied, len(batch), s.head, applied.Stats.LogHead), nil
	}
	s.head = applied.Stats.LogHead
	if trace {
		s.layer.dirtyRatio += share(float64(applied.Stats.DirtySubproblems), float64(applied.Stats.TotalSubproblems))
	}

	fabric := []byte("{}")
	if s.warm {
		fabric = actuated
	}
	submit := time.Now()
	var ack struct {
		ID string `json:"id"`
	}
	if _, err := s.d.call("POST", "/v1/cluster/execute", fabric, &ack); err != nil {
		return classify(err), "execute: " + err.Error(), nil
	}
	var v struct {
		Status string      `json:"status"`
		Error  string      `json:"error"`
		Report *execReport `json:"report"`
	}
	for {
		if _, err := s.d.call("GET", "/v1/cluster/execute/"+ack.ID+"?wait=30s", nil, &v); err != nil {
			return classify(err), "execute poll: " + err.Error(), nil
		}
		if v.Status != "queued" && v.Status != "running" {
			break
		}
	}
	roundTrip := time.Since(submit)
	rep := v.Report
	switch {
	case v.Status != "completed" || rep == nil:
		return opError, fmt.Sprintf("execution %s ended %s: %s", ack.ID, v.Status, v.Error), nil
	case rep.Outcome != "completed" || rep.Failed > 0 || rep.Skipped > 0 || rep.FloorViolations > 0:
		return opCheck, fmt.Sprintf("execution %s: outcome %s, %d failed, %d skipped, %d floor violations: %s",
			ack.ID, rep.Outcome, rep.Failed, rep.Skipped, rep.FloorViolations, rep.Error), rep
	case !s.warm:
	case rep.Commands != s.creates || rep.Executed != s.creates:
		return opCheck, fmt.Sprintf("execution %s: %d of %d commands executed, the batch evicted %d containers",
			ack.ID, rep.Executed, rep.Commands, s.creates), rep
	case rep.NormAchieved != s.gain:
		return opCheck, fmt.Sprintf("execution %s: gain %v, the warm-up left %v and redeploys move no affinity container",
			ack.ID, rep.NormAchieved, s.gain), rep
	}
	if trace {
		elapsed, err := time.ParseDuration(rep.Elapsed)
		if err != nil {
			return opError, "execution elapsed: " + err.Error(), rep
		}
		after, err := s.blockHeads()
		if err != nil {
			return opError, err.Error(), rep
		}
		for id, h := range after {
			if h != s.blocks[id] {
				s.layer.touched++
			}
			s.layer.entries += float64(h - s.blocks[id])
		}
		s.blocks = after
		s.layer.ops++
		s.layer.executeMS += ms(elapsed)
		s.layer.commands += float64(rep.Commands)
		s.layer.waves += float64(rep.Steps)
		s.layer.ovh += ms(roundTrip - elapsed)
	}
	return opOK, "", rep
}

// checkLog pages the session's global journal and checks it against
// what was sent: it must hold exactly the sent events in order, and
// replay from the installed snapshot through lifetime.Replay to the
// snapshot's replica targets, which every batch restores. The session's
// own gain must still be the one the warm-up left.
func (s *churnSession) checkLog(snap *snapshot.Snapshot) error {
	var entries []lifetime.EntryJSON
	for {
		var page struct {
			Head    uint64               `json:"head"`
			Count   int                  `json:"count"`
			Entries []lifetime.EntryJSON `json:"entries"`
		}
		path := "/v1/cluster/log?limit=10000&from=" + strconv.Itoa(len(entries)+1)
		if _, err := s.d.call("GET", path, nil, &page); err != nil {
			return fmt.Errorf("log: %w", err)
		}
		entries = append(entries, page.Entries...)
		if page.Count == 0 || uint64(len(entries)) >= page.Head {
			break
		}
	}
	if len(entries) != len(s.sent) {
		return fmt.Errorf("journal holds %d entries, %d events were sent", len(entries), len(s.sent))
	}
	for i, e := range entries {
		got, _ := json.Marshal(e.EventJSON)
		want, _ := json.Marshal(s.sent[i])
		if !bytes.Equal(got, want) {
			return fmt.Errorf("journal entry %d is %s, sent %s", i+1, got, want)
		}
	}
	replayed, err := lifetime.Replay(&lifetime.Trace{Version: lifetime.TraceVersion, Snapshot: snap, Events: entries})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	p := replayed.Problem()
	if p.N() != len(snap.Services) {
		return fmt.Errorf("replay folds to %d services, the snapshot has %d", p.N(), len(snap.Services))
	}
	for i, svc := range snap.Services {
		if p.Services[i].Replicas != svc.Replicas {
			return fmt.Errorf("replay leaves service %d at %d replicas, the snapshot's target is %d", i, p.Services[i].Replicas, svc.Replicas)
		}
	}
	var st clusterStats
	if _, err := s.d.call("GET", "/v1/cluster", nil, &st); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if st.NormalizedGain != s.gain {
		return fmt.Errorf("session gain %v, the warm-up left %v", st.NormalizedGain, s.gain)
	}
	return nil
}

func runChurnExec(cfg config, env map[string]any) (*result, error) {
	batches := 2 + int(cfg.seconds*float64(time.Second)/float64(churnInterval))
	var in *churnInput
	var s *churnSession
	var setup []float64
	for r := 0; r < setupRepeats; r++ {
		if s != nil {
			s.d.stop()
		}
		start := time.Now()
		var err error
		if in, err = churnInputs(cfg.seed, batches); err != nil {
			return nil, err
		}
		if s, err = startChurnSession(cfg.rasad, in); err != nil {
			return nil, err
		}
		// Warm-up: batch 0, which also runs each block's first full pass.
		o, detail, rep := s.op(in.batches[0], false)
		if o != opOK {
			s.d.stop()
			return nil, fmt.Errorf("warm-up batch: %s", detail)
		}
		s.warm, s.gain = true, rep.NormAchieved
		setup = append(setup, time.Since(start).Seconds())
	}
	defer s.d.stop()
	if cfg.trace {
		var err error
		if s.blocks, err = s.blockHeads(); err != nil {
			return nil, err
		}
	}
	env["tail_percentile"] = churnTailQ * 100
	env["actuation_ms"] = ms(churnActuation)
	env["creates_per_batch"] = in.creates
	env["interval_ms"] = ms(churnInterval)

	// Open loop, one sender: batch k >= 1 is due at start +
	// (k-1)*churnInterval and is sent once it is due and the previous
	// batch is done; latency counts from the due time, so a slow batch
	// delays the next.
	var t tally
	var gains, moves, lags []float64
	start := time.Now()
	end := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 1; k < len(in.batches); k++ {
		due := start.Add(time.Duration(k-1) * churnInterval)
		if !due.Before(end) {
			break
		}
		time.Sleep(time.Until(due))
		lags = append(lags, ms(time.Since(due)))
		o, detail, rep := s.op(in.batches[k], cfg.trace)
		t.record(o, ms(time.Since(due)), fmt.Sprintf("batch %d: %s", k, detail))
		if o == opOK {
			gains = append(gains, rep.NormAchieved)
			// Redeploys re-place containers without relocating any, so
			// every executed command counts as one container moved.
			moves = append(moves, float64(rep.Executed))
		}
	}
	elapsed := time.Since(start)
	env["ops"] = t.attempted()
	rss, err := s.d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := s.checkLog(in.snap); err != nil {
		t.record(opCheck, 0, "final log check: "+err.Error())
	}
	if err := generatorOnTime(lags, env); err != nil {
		return nil, err
	}
	if cfg.trace {
		return finish(&t, layerMetrics(s.layer.values()), env), nil
	}
	m, err := endToEnd(&t, churnTailQ, elapsed, setup, gains, moves, rss, env)
	if err != nil {
		return nil, err
	}
	return finish(&t, m, env), nil
}
