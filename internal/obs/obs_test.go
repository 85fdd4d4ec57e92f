package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/solve"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs processed.")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	g := r.Gauge("inflight", "Jobs in flight.")
	g.Set(3)
	g.Dec()
	r.GaugeFunc("queue_depth", "Queued jobs.", func() float64 { return 7 })

	out := expose(t, r)
	for _, want := range []string{
		"# HELP jobs_total Jobs processed.",
		"# TYPE jobs_total counter",
		"jobs_total 3",
		"# TYPE inflight gauge",
		"inflight 2",
		"queue_depth 7",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if c.Value() != 3 || g.Value() != 2 {
		t.Fatalf("value accessors: counter=%v gauge=%v", c.Value(), g.Value())
	}
}

func TestLabelledCounter(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("stop_total", "Stops by cause.", "cause")
	v.With("deadline").Add(2)
	v.With("optimal").Inc()
	v.With("deadline").Inc()

	out := expose(t, r)
	if !strings.Contains(out, `stop_total{cause="deadline"} 3`) {
		t.Fatalf("missing deadline series:\n%s", out)
	}
	if !strings.Contains(out, `stop_total{cause="optimal"} 1`) {
		t.Fatalf("missing optimal series:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := expose(t, r)
	for _, want := range []string{
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_sum 56.05`,
		`latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("weird", "", "name").With("a\"b\\c\nd").Inc()
	out := expose(t, r)
	if !strings.Contains(out, `weird{name="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping:\n%s", out)
	}
}

func TestReRegistrationReturnsSameSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "help").Inc()
	r.Counter("c", "help").Inc()
	if got := r.Counter("c", "help").Value(); got != 2 {
		t.Fatalf("re-registered counter = %v, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("c", "help")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	v := r.CounterVec("m", "", "k")
	h := r.Histogram("h", "", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				v.With("x").Inc()
				h.Observe(float64(j) / 100)
			}
		}(i)
	}
	// Scrape concurrently with the writers.
	for i := 0; i < 10; i++ {
		var b strings.Builder
		if _, err := r.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %v, want 8000", c.Value())
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("body:\n%s", rec.Body.String())
	}
}

func TestSolveCollector(t *testing.T) {
	r := NewRegistry()
	c := NewSolveCollector(r, "rasa")
	c.Observe(solve.Stats{
		SimplexIters: 100, Nodes: 10, Incumbents: 2, Columns: 5, PricingRounds: 3,
		MasterTime: 10 * time.Millisecond, PricingTime: 5 * time.Millisecond,
		Wall: 20 * time.Millisecond, Stop: solve.Deadline,
	})
	c.Observe(solve.Stats{SimplexIters: 50, Stop: solve.Optimal, Wall: time.Millisecond})
	out := expose(t, r)
	for _, want := range []string{
		"rasa_solver_simplex_pivots_total 150",
		"rasa_solver_bb_nodes_total 10",
		`rasa_solve_stop_total{cause="deadline"} 1`,
		`rasa_solve_stop_total{cause="optimal"} 1`,
		`rasa_solve_phase_seconds_count{phase="master"} 1`,
		"rasa_solve_wall_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}
