// Command perfbench is the repository benchmark: three workloads run
// against the real code, each printing its end-to-end metrics (or, with
// -trace 1, its per-layer metrics) as one JSON object on the last line
// of standard output. See README.md for the workloads and the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runner runs one measured phase and returns its result. Set-up time,
// the environment and any diagnostics go to env.
type runner func(cfg config, env map[string]any) (*result, error)

var runners = map[string]runner{
	"plan-batch":   runPlanBatch,
	"churn-exec":   runChurnExec,
	"jobs-timeout": runJobsTimeout,
}

type config struct {
	seed    int64
	seconds float64
	trace   bool
	rasad   string
}

// setupRepeats is how many times a workload sets up; setup_s is the
// median. jobs-timeout, whose set-up runs a 1 s job, uses jobSetupRepeats.
const setupRepeats = 5

func main() {
	name := flag.String("workload", "", "plan-batch, churn-exec or jobs-timeout")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	rasad := flag.String("rasad", "", "path of the rasad binary (HTTP workloads)")
	flag.Parse()
	run, ok := runners[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload plan-batch|churn-exec|jobs-timeout -seed N -seconds S -trace 0|1 [-rasad PATH]")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, rasad: *rasad}
	env := map[string]any{
		"workload":   *name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"commit":     commit(),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
	res, err := run(cfg, env)
	envLine, _ := json.Marshal(map[string]any{"env": env})
	if err != nil {
		// No result: standard output stays free of anything that could be
		// read as one.
		fmt.Fprintln(os.Stderr, string(envLine))
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Println(string(envLine))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// endToEnd assembles the end-to-end metrics every workload reports; the
// set-up times behind setup_s go to env.
func endToEnd(t *tally, tailQ float64, elapsed time.Duration, setup []float64, gains, moves []float64, rssMB float64, env map[string]any) (map[string]metric, error) {
	tail, err := tailLatency(t.latencyMS, tailQ)
	if err != nil {
		return nil, err
	}
	env["setup_runs_s"] = setup
	return map[string]metric{
		"setup_s":          {median(setup), "s"},
		"latency_p50_ms":   {median(t.latencyMS), "ms"},
		"latency_tail_ms":  {tail, "ms"},
		"throughput_per_s": {float64(t.byOutcome[opOK]) / elapsed.Seconds(), "1/s"},
		"gain":             {median(gains), "ratio"},
		"moves_per_op":     {mean(moves), "count"},
		"success_share":    {t.successShare(), "ratio"},
		"peak_rss_mb":      {rssMB, "MiB"},
	}, nil
}

// finish builds the result from a tally: correct only when every
// attempted op succeeded and passed its checks.
func finish(t *tally, metrics map[string]metric, env map[string]any) *result {
	env["outcomes"] = map[string]int{
		"ok": t.byOutcome[opOK], "error": t.byOutcome[opError], "refused": t.byOutcome[opRefused],
		"check": t.byOutcome[opCheck], "deadline": t.byOutcome[opDeadline],
	}
	if t.firstErr != "" {
		env["first_failure"] = t.firstErr
	}
	return &result{
		Correct:   t.failed() == 0 && t.attempted() > 0,
		Attempted: t.attempted(),
		Failed:    t.failed(),
		Metrics:   metrics,
	}
}
