package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/migrate"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/solve"
	"github.com/cloudsched/rasa/internal/workload"
)

// jobs-timeout: M4-shaped snapshots (~11k containers) submitted to
// POST /v1/jobs at a fixed 1 s budget on an open-loop schedule slower
// than one job's latency, each long-polled to completion. Budget-bound:
// latency is the budget plus decode, queueing, migration planning and
// encoding; solver speed shows up as gain.

const (
	jobBudget   = "1s"
	jobInterval = 1250 * time.Millisecond
	// jobTailQ is the highest percentile with 10 samples beyond it at the
	// ~24 jobs a 30 s run completes.
	jobTailQ = 0.55
	// jobSetupRepeats is fewer than setupRepeats: each set-up runs a
	// budget-bound job, so its time is steady and three keep the run
	// short.
	jobSetupRepeats = 3
)

// jobShape is M4 at a fixed generator seed, chosen so every job runs
// into the budget. Every job submits this one cluster — with two, the
// median gain would fall between the clusters' gain levels and flip with
// the draw — and the workload seed draws each job's partition-sampling
// seed.
var jobShape = workload.Preset{Name: "M4", Services: 1068, Containers: 11326, Machines: 437, Beta: 1.45, AffinityFraction: 0.5, Zones: 3, Utilization: 0.6, Seed: 1000}

// jobInput is one snapshot: the problem, its deployment and its JSON.
type jobInput struct {
	p       *cluster.Problem
	current *cluster.Assignment
	snap    []byte
}

func newJobInput() (*jobInput, error) {
	c, err := workload.Generate(jobShape)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", jobShape.Name, err)
	}
	snap, err := json.Marshal(snapshot.FromCluster(c.Problem, c.Original))
	if err != nil {
		return nil, err
	}
	return &jobInput{p: c.Problem, current: c.Original, snap: snap}, nil
}

// jobBody is the POST /v1/jobs body: the snapshot at the fixed budget,
// partitioned with the given sampling seed.
func jobBody(in *jobInput, seed int64) []byte {
	head := fmt.Sprintf(`{"options":{"budget":%q,"seed":%d},"snapshot":`, jobBudget, seed)
	body := make([]byte, 0, len(head)+len(in.snap)+1)
	return append(append(append(body, head...), in.snap...), '}')
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	ID        string     `json:"id"`
	Status    string     `json:"status"`
	Error     string     `json:"error"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Result    *struct {
		GainedAffinity float64                  `json:"gainedAffinity"`
		TotalAffinity  float64                  `json:"totalAffinity"`
		Stats          solve.Stats              `json:"stats"`
		Assignment     []snapshot.PlacementJSON `json:"assignment"`
		Plan           *planJSON                `json:"plan"`
		SubResults     []struct {
			Algorithm string      `json:"algorithm"`
			Stats     solve.Stats `json:"stats"`
		} `json:"subResults"`
	} `json:"result"`
}

type planJSON struct {
	Moves int `json:"moves"`
	Steps [][]struct {
		Op      string `json:"op"`
		Service int    `json:"service"`
		Machine int    `json:"machine"`
	} `json:"steps"`
}

func (pj *planJSON) plan() *migrate.Plan {
	out := &migrate.Plan{Moves: pj.Moves}
	for _, step := range pj.Steps {
		var s migrate.Step
		for _, c := range step {
			op := migrate.Create
			if c.Op == "delete" {
				op = migrate.Delete
			}
			s = append(s, migrate.Command{Op: op, Service: c.Service, Machine: c.Machine})
		}
		out.Steps = append(out.Steps, s)
	}
	return out
}

// submitted is one job of the timed phase.
type submitted struct {
	in      *jobInput
	seed    int64
	due     time.Time
	sentLag time.Duration
	o       outcome
	detail  string
	latency time.Duration
	view    *jobView
	bytes   int
}

// jobWait is the long-poll step; a job still running after it is polled
// again.
const jobWait = "30s"

func runJobsTimeout(cfg config, env map[string]any) (*result, error) {
	var d *daemon
	var in *jobInput
	var setup []float64
	for r := 0; r < jobSetupRepeats; r++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if in, err = newJobInput(); err != nil {
			return nil, err
		}
		if d, err = startDaemon(cfg.rasad); err != nil {
			return nil, err
		}
		warm := &submitted{in: in, seed: cfg.seed * 1000, due: time.Now()}
		submitJob(d, warm)
		awaitJob(d, warm)
		if warm.o != opOK {
			d.stop()
			return nil, fmt.Errorf("warm-up job: %s", warm.detail)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	defer d.stop()
	env["tail_percentile"] = jobTailQ * 100
	env["interval_ms"] = ms(jobInterval)

	// Open loop: job k is due at start + k*jobInterval whatever happened
	// to the jobs before it; each is long-polled on its own goroutine.
	var jobs []*submitted
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * jobInterval)
		if !due.Before(end) {
			break
		}
		time.Sleep(time.Until(due))
		j := &submitted{in: in, seed: cfg.seed*1000 + int64(k) + 1, due: due, sentLag: time.Since(due)}
		jobs = append(jobs, j)
		if submitJob(d, j) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				awaitJob(d, j)
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Checks and benchmark-side layer timings run after the timed phase
	// so they do not compete with the daemon for the cores.
	var t tally
	var gains, moves, lags []float64
	var acc solverAcc
	var queueMS, resultBytes float64
	for _, j := range jobs {
		lags = append(lags, ms(j.sentLag))
		if j.o == opOK {
			if err := checkJob(j, &acc); err != nil {
				j.o, j.detail = opCheck, err.Error()
			}
		}
		t.record(j.o, ms(j.latency), j.detail)
		if j.o != opOK {
			continue
		}
		r := j.view.Result
		gains = append(gains, r.GainedAffinity/r.TotalAffinity)
		moves = append(moves, float64(r.Plan.Moves))
		queueMS += ms(j.view.Started.Sub(j.view.Submitted))
		resultBytes += float64(j.bytes)
	}
	env["ops"] = t.attempted()
	env["latency_max_ms"] = quantile(t.latencyMS, 1)
	if err := generatorOnTime(lags, env); err != nil {
		return nil, err
	}

	if cfg.trace {
		vals := acc.values()
		n := float64(t.byOutcome[opOK])
		vals["server.queue_ms"] = share(queueMS, n)
		vals["server.result_bytes"] = share(resultBytes, n)
		if vals["snapshot.decode_ms"], err = decodeMS(in); err != nil {
			return nil, err
		}
		if vals["partition.ms"], err = partitionMS(in); err != nil {
			return nil, err
		}
		return finish(&t, layerMetrics(vals), env), nil
	}
	m, err := endToEnd(&t, jobTailQ, elapsed, setup, gains, moves, rss, env)
	if err != nil {
		return nil, err
	}
	return finish(&t, m, env), nil
}

// submitJob posts j and reports whether it was accepted; a refusal or
// error is recorded on j.
func submitJob(d *daemon, j *submitted) bool {
	var ack struct {
		ID string `json:"id"`
	}
	if _, err := d.call("POST", "/v1/jobs", jobBody(j.in, j.seed), &ack); err != nil {
		j.o, j.detail = classify(err), "submit: "+err.Error()
		return false
	}
	j.view = &jobView{ID: ack.ID}
	return true
}

// awaitJob long-polls j until it reaches a terminal status and records
// its latency from its due time.
func awaitJob(d *daemon, j *submitted) {
	for {
		var v jobView
		n, err := d.call("GET", "/v1/jobs/"+j.view.ID+"?wait="+jobWait, nil, &v)
		if err != nil {
			j.o, j.detail = classify(err), "poll: "+err.Error()
			return
		}
		switch v.Status {
		case "queued", "running":
			continue
		case "completed":
			j.latency, j.view, j.bytes = time.Since(j.due), &v, n
			if v.Result == nil || v.Started == nil {
				j.o, j.detail = opError, "completed job without result"
			}
			return
		default:
			j.o, j.detail = opError, fmt.Sprintf("job %s ended %s: %s", v.ID, v.Status, v.Error)
			return
		}
	}
}

// checkJob verifies a completed job's assignment and plan against its
// input, then adds its solver work and the time of a benchmark-side
// migration planning run between the same endpoints to acc.
func checkJob(j *submitted, acc *solverAcc) error {
	r := j.view.Result
	if r.Plan == nil {
		return fmt.Errorf("job %s: no plan", j.view.ID)
	}
	got := cluster.NewAssignment(j.in.p.N(), j.in.p.M())
	for _, pl := range r.Assignment {
		if pl.Service < 0 || pl.Service >= j.in.p.N() || pl.Machine < 0 || pl.Machine >= j.in.p.M() {
			return fmt.Errorf("job %s: placement %+v out of range", j.view.ID, pl)
		}
		got.Set(pl.Service, pl.Machine, pl.Count)
	}
	plan := r.Plan.plan()
	if err := checkResult(j.in.p, j.in.current, got, plan); err != nil {
		return fmt.Errorf("job %s: %w", j.view.ID, err)
	}
	subs := make([]subSolve, len(r.SubResults))
	for i, sr := range r.SubResults {
		subs[i] = subSolve{mip: sr.Algorithm == "MIP", wall: sr.Stats.Wall, stop: sr.Stats.Stop}
	}
	acc.addPass(r.Stats, subs)
	acc.steps += float64(len(plan.Steps))
	t := time.Now()
	// Timing only: a plan that stalls part-way is still a plan the daemon
	// handles, and the check above already verified the one it returned.
	_, _ = migrate.Compute(context.Background(), j.in.p, j.in.current, got, migrate.Options{})
	acc.migrateMS += ms(time.Since(t))
	return nil
}

// decodeMS is the median time to decode the snapshot into a problem and
// deployment, as the daemon does on submit.
func decodeMS(in *jobInput) (float64, error) {
	var xs []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		snap, err := snapshot.Read(bytes.NewReader(in.snap))
		if err != nil {
			return 0, err
		}
		if _, _, err := snap.ToCluster(); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t)))
	}
	return median(xs), nil
}

// partitionMS is the median time of the multistage partitioner on the
// snapshot, with the daemon's default options.
func partitionMS(in *jobInput) (float64, error) {
	var xs []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		if _, err := partition.Multistage(context.Background(), in.p, in.current, partition.Options{}); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t)))
	}
	return median(xs), nil
}

// maxLate is how late an open-loop generator may send an op before the
// run counts as fallen behind: the schedule was not kept, so the offered
// rate was not the one stated.
const maxLate = time.Second

// generatorOnTime records how late an open-loop generator sent its ops
// and fails the run when it fell behind.
func generatorOnTime(lagsMS []float64, env map[string]any) error {
	if len(lagsMS) == 0 {
		return fmt.Errorf("no ops were due")
	}
	worst := quantile(lagsMS, 1)
	env["generator_late_p50_ms"] = median(lagsMS)
	env["generator_late_max_ms"] = worst
	if worst >= ms(maxLate) {
		return fmt.Errorf("generator fell behind: an op was sent %.0f ms after it was due", worst)
	}
	return nil
}
