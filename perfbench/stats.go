package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one reported figure: a value and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome classifies one attempted op. Every class but opOK counts as a
// failure against the number attempted.
type outcome int

const (
	opOK       outcome = iota
	opError            // transport error, malformed reply, or a failed job
	opRefused          // 429 or any other non-2xx answer
	opCheck            // the op's output failed a correctness check
	opDeadline         // a work-bound op stopped on its deadline
)

func (o outcome) String() string {
	return [...]string{"ok", "error", "refused", "check", "deadline"}[o]
}

// httpOutcome maps a response status to an outcome: only 2xx succeeds.
func httpOutcome(status int) outcome {
	if status >= 200 && status < 300 {
		return opOK
	}
	return opRefused
}

// tally counts attempted ops by outcome and keeps the latency of every
// successful one.
type tally struct {
	byOutcome [5]int
	latencyMS []float64
	firstErr  string
}

// record adds one op. Latency is kept for successful ops only; a failed
// op counts as missing every latency limit through the success share.
func (t *tally) record(o outcome, latencyMS float64, detail string) {
	t.byOutcome[o]++
	if o == opOK {
		t.latencyMS = append(t.latencyMS, latencyMS)
		return
	}
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf("%s: %s", o, detail)
	}
}

func (t *tally) attempted() int {
	n := 0
	for _, c := range t.byOutcome {
		n += c
	}
	return n
}

func (t *tally) failed() int { return t.attempted() - t.byOutcome[opOK] }

// successShare is the share of attempted ops that succeeded and passed
// every check (1 - error share; reported this way round so the metric is
// never 0 on a healthy run).
func (t *tally) successShare() float64 {
	if t.attempted() == 0 {
		return 0
	}
	return float64(t.byOutcome[opOK]) / float64(t.attempted())
}

// quantile returns the nearest-rank q-quantile of xs (q in (0, 1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankIndex(len(s), q)]
}

// rankIndex is the 0-based nearest-rank index of the q-quantile of n
// sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples ranked above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// minTailBeyond is how many samples must lie beyond the tail percentile
// for it to be reported.
const minTailBeyond = 10

// tailLatency returns the fixed tail percentile q of xs, or an error when
// fewer than minTailBeyond samples lie beyond it — the run then measured
// too few ops for its workload's percentile.
func tailLatency(xs []float64, q float64) (float64, error) {
	if b := beyond(len(xs), q); b < minTailBeyond {
		return 0, fmt.Errorf("p%.0f over %d samples leaves %d beyond it, want >= %d", q*100, len(xs), b, minTailBeyond)
	}
	return quantile(xs, q), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
