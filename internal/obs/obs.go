// Package obs is a small, dependency-free observability layer: a
// metrics registry of counters, gauges, and histograms (optionally
// labelled) with Prometheus text exposition. It backs the optimization
// service's GET /metrics endpoint (internal/server) and the rasad -loop
// production simulation, turning per-solve solve.Stats into scrapeable
// time series without pulling a client library into the module.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// kind is the exposition TYPE of a metric family.
type kind string

const (
	counterKind   kind = "counter"
	gaugeKind     kind = "gauge"
	histogramKind kind = "histogram"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use. Metrics
// are rendered in registration order; series within a family in
// creation order — deterministic output for tests and diffing scrapes.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histograms only

	mu     sync.Mutex
	order  []string
	series map[string]*series
}

type series struct {
	labelValues []string

	mu    sync.Mutex
	val   float64        // counter / gauge value
	fn    func() float64 // gauge callback (overrides val when non-nil)
	count uint64         // histogram observation count
	sum   float64        // histogram observation sum
	hist  []uint64       // histogram per-bucket (non-cumulative) counts
}

// register fetches or creates a family, panicking on a conflicting
// re-registration (same name, different shape) — a programming error.
func (r *Registry) register(name, help string, k kind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: conflicting registration of %q", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: conflicting labels for %q", name))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: k,
		labels: append([]string(nil), labels...), buckets: buckets,
		series: make(map[string]*series),
	}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), values...)}
		if f.kind == histogramKind {
			s.hist = make([]uint64, len(f.buckets))
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored (counters never go down).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.s.mu.Lock()
	c.s.val += v
	c.s.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.val
}

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.val = v
	g.s.mu.Unlock()
}

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) {
	g.s.mu.Lock()
	g.s.val += v
	g.s.mu.Unlock()
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (consulting the callback for
// GaugeFunc gauges).
func (g *Gauge) Value() float64 {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	if g.s.fn != nil {
		return g.s.fn()
	}
	return g.s.val
}

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	f *family
	s *series
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	h.s.count++
	h.s.sum += v
	for i, ub := range h.f.buckets {
		if v <= ub {
			h.s.hist[i]++
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.count
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, counterKind, nil, nil)
	return &Counter{s: f.get(nil)}
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, gaugeKind, nil, nil)
	return &Gauge{s: f.get(nil)}
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — e.g. a queue depth read from len(chan).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, gaugeKind, nil, nil)
	s := f.get(nil)
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

// Histogram registers an unlabelled histogram with the given upper
// bounds (ascending; +Inf is implicit). Nil buckets use DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(name, help, histogramKind, nil, buckets)
	return &Histogram{f: f, s: f.get(nil)}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, counterKind, labels, nil)}
}

// With returns the counter for the given label values (created on
// first use).
func (v *CounterVec) With(values ...string) *Counter {
	return &Counter{s: v.f.get(values)}
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers a labelled histogram family. Nil buckets use
// DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, histogramKind, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{f: v.f, s: v.f.get(values)}
}

// DefBuckets spans 1ms–60s, the range of solve and job latencies on
// this substrate (seconds).
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// WriteTo renders the registry in Prometheus text exposition format
// (version 0.0.4). It implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		f.expose(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func (f *family) expose(b *strings.Builder) {
	f.mu.Lock()
	order := append([]string(nil), f.order...)
	series := make([]*series, len(order))
	for i, key := range order {
		series[i] = f.series[key]
	}
	f.mu.Unlock()
	if len(series) == 0 {
		return
	}
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range series {
		s.mu.Lock()
		switch f.kind {
		case histogramKind:
			cum := uint64(0)
			for i, ub := range f.buckets {
				cum += s.hist[i]
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelValues, "le", formatBound(ub)), cum)
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelValues, "le", "+Inf"), s.count)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelValues, "", ""), formatValue(s.sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelValues, "", ""), s.count)
		default:
			v := s.val
			if s.fn != nil {
				v = s.fn()
			}
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, s.labelValues, "", ""), formatValue(v))
		}
		s.mu.Unlock()
	}
}

// labelString renders {k="v",...}, appending the optional extra pair
// (used for histogram "le"), or "" when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry at scrape time.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}
