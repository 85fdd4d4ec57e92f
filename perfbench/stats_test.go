package main

import (
	"errors"
	"testing"
	"time"

	"github.com/cloudsched/rasa"
	"github.com/cloudsched/rasa/internal/partition"
	"github.com/cloudsched/rasa/internal/pool"
	"github.com/cloudsched/rasa/internal/solve"
)

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q     float64
		want  float64 // the tail value over samples 1..n
		beyon int
	}{
		{n: 100, q: 0.90, want: 90, beyon: 10},
		{n: 66, q: 0.80, want: 53, beyon: 13},
		{n: 38, q: 0.70, want: 27, beyon: 11},
		{n: 24, q: 0.55, want: 14, beyon: 10},
	} {
		if got := beyond(tc.n, tc.q); got != tc.beyon {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.beyon)
		}
		got, err := tailLatency(samples(tc.n), tc.q)
		if err != nil || got != tc.want {
			t.Errorf("tailLatency(%d samples, %v) = %v, %v; want %v", tc.n, tc.q, got, err, tc.want)
		}
	}
	// One sample fewer leaves only nine beyond p90 of 99: refused.
	if _, err := tailLatency(samples(99), 0.90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := tailLatency(nil, 0.5); err == nil {
		t.Error("tail of no samples must be refused")
	}
}

// Each workload's fixed tail percentile must leave ten samples beyond it
// at the op count its rate gives a 30 s run.
func TestWorkloadTailsFitTheirRates(t *testing.T) {
	run := 30 * time.Second
	for name, tc := range map[string]struct {
		q float64
		n int
	}{
		"churn-exec":   {churnTailQ, int(run / churnInterval)},
		"jobs-timeout": {jobTailQ, int((run-1)/jobInterval) + 1},
		"plan-batch":   {planTailQ, 150}, // a run completes 150 or more passes
	} {
		if b := beyond(tc.n, tc.q); b < minTailBeyond {
			t.Errorf("%s: p%v over %d ops leaves %d beyond it", name, tc.q*100, tc.n, b)
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if m := mean(xs); m != 3 {
		t.Errorf("mean = %v, want 3", m)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}

func TestNon2xxAndRefusalsCountAsFailures(t *testing.T) {
	for status, want := range map[int]outcome{
		200: opOK, 202: opOK, 429: opRefused, 400: opRefused, 404: opRefused, 500: opRefused, 503: opRefused,
	} {
		if got := httpOutcome(status); got != want {
			t.Errorf("httpOutcome(%d) = %v, want %v", status, got, want)
		}
	}
	if got := classify(&statusError{status: 429}); got != opRefused {
		t.Errorf("classify(429) = %v, want refused", got)
	}
	if got := classify(errors.New("connection reset")); got != opError {
		t.Errorf("classify(transport error) = %v, want error", got)
	}

	var tl tally
	tl.record(opOK, 10, "")
	tl.record(httpOutcome(429), 0, "queue full")
	tl.record(httpOutcome(500), 0, "internal")
	tl.record(opOK, 20, "")
	if tl.attempted() != 4 || tl.failed() != 2 || tl.successShare() != 0.5 {
		t.Errorf("attempted %d failed %d success %v; want 4, 2, 0.5", tl.attempted(), tl.failed(), tl.successShare())
	}
	if len(tl.latencyMS) != 2 {
		t.Errorf("failed ops must not contribute latency samples, got %d samples", len(tl.latencyMS))
	}
	if tl.firstErr != "refused: queue full" {
		t.Errorf("first failure %q", tl.firstErr)
	}
	if r := finish(&tl, nil, map[string]any{}); r.Correct || r.Failed != 2 || r.Attempted != 4 {
		t.Errorf("finish = %+v; a run with failures is not correct", r)
	}
}

func TestPlanBatchDeadlineStopIsAFailure(t *testing.T) {
	in := &planInput{name: "x"}
	pass := &rasa.Result{Stats: solve.Stats{Stop: solve.Deadline}}
	if o, _ := checkPass(in, pass, nil); o != opDeadline {
		t.Errorf("pass stopped on its deadline: outcome %v, want deadline", o)
	}
	sub := &rasa.Result{
		Stats:      solve.Stats{Stop: solve.Optimal},
		SubResults: []pool.Result{{Stats: solve.Stats{Stop: solve.Optimal}}, {Stats: solve.Stats{Stop: solve.Deadline}}},
	}
	if o, _ := checkPass(in, sub, nil); o != opDeadline {
		t.Errorf("one subproblem stopped on its deadline: outcome %v, want deadline", o)
	}
	if o, _ := checkPass(in, nil, errors.New("boom")); o != opError {
		t.Errorf("pass error: outcome %v, want error", o)
	}
}

func TestGeneratorBehindIsInvalid(t *testing.T) {
	env := map[string]any{}
	if err := generatorOnTime([]float64{0.2, 3, 0.5}, env); err != nil {
		t.Errorf("on-time generator refused: %v", err)
	}
	if env["generator_late_max_ms"] != 3.0 {
		t.Errorf("max lateness %v, want 3", env["generator_late_max_ms"])
	}
	if err := generatorOnTime([]float64{0.2, ms(maxLate)}, env); err == nil {
		t.Error("an op sent maxLate after it was due must invalidate the run")
	}
}

// Every churn batch redeploys one service from each block that has no
// container waiting for a machine, and leaves every replica target as it
// found it.
func TestRedeploysTouchEveryEligibleBlockOnce(t *testing.T) {
	in, err := churnInputs(7, 20)
	if err != nil {
		t.Fatal(err)
	}
	p, current, err := in.snap.ToCluster()
	if err != nil {
		t.Fatal(err)
	}
	blockOf := make(map[int]int)
	waiting := make(map[int]int)
	for b, blk := range partition.Blocks(p) {
		for _, s := range blk.Services {
			blockOf[s] = b
			waiting[b] += p.Services[s].Replicas - current.Placed(s)
		}
	}
	if in.creates < 1 {
		t.Fatalf("no block is eligible for redeploys")
	}
	for k, batch := range in.batches {
		touched := make(map[int]bool)
		for i := 0; i < len(batch); i += 2 {
			down, up := batch[i], batch[i+1]
			target := p.Services[down.Service].Replicas
			if down.Service != up.Service || down.Replicas != target-churnBounceSize || up.Replicas != target {
				t.Fatalf("batch %d: events %+v, %+v are not a redeploy of one service back to %d", k, down, up, target)
			}
			b := blockOf[down.Service]
			if touched[b] || waiting[b] > 0 || p.Affinity.Degree(down.Service) > 0 {
				t.Fatalf("batch %d: service %d of block %d (waiting %d) must not be redeployed here", k, down.Service, b, waiting[b])
			}
			touched[b] = true
		}
		if len(touched)*churnBounceSize != in.creates {
			t.Fatalf("batch %d touches %d blocks, want %d creates", k, len(touched), in.creates)
		}
	}
}
