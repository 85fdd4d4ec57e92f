// The -serve mode: rasad as a long-running optimization service. A
// SIGTERM/SIGINT drains the worker pool — in-flight jobs return their
// anytime incumbents, new submissions are rejected — and the process
// exits cleanly once every accepted job has a result.
package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/cloudsched/rasa/internal/obs"
	"github.com/cloudsched/rasa/internal/server"
)

// drainTimeout bounds how long rasad waits for in-flight jobs after a
// termination signal. Cancelled solves return their incumbents within
// milliseconds, so this only matters if a solver wedges.
const drainTimeout = 30 * time.Second

func runServe(ctx context.Context, addr string, workers, queueDepth, shards int, budget, maxBudget, maxWait time.Duration, policy string, minConfidence float64) {
	srv := server.New(server.Config{
		Workers:       workers,
		QueueDepth:    queueDepth,
		DefaultBudget: budget,
		MaxBudget:     maxBudget,
		MaxWait:       maxWait,
		Shards:        shards,
		Policy:        policy,
		MinConfidence: minConfidence,
	})
	hs := &http.Server{Addr: addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	fmt.Printf("rasad: serving optimization API on %s (%d workers, queue depth %d, default budget %s, policy %s, %d cluster shards)\n",
		addr, workers, queueDepth, budget, policy, shards)

	select {
	case err := <-errCh:
		fail(err)
	case <-ctx.Done():
	}

	fmt.Println("rasad: termination signal, draining in-flight jobs")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "rasad: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "rasad: http shutdown: %v\n", err)
	}
	fmt.Println("rasad: drained, exiting")
}

// serveMetrics exposes a registry at /metrics (plus a trivial /healthz)
// for the -loop mode. With an empty addr it is a no-op. The returned
// stop function shuts the listener down.
func serveMetrics(addr string, reg *obs.Registry) func() {
	if addr == "" {
		return func() {}
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	hs := &http.Server{Addr: addr, Handler: mux}
	go hs.ListenAndServe()
	fmt.Printf("rasad: publishing loop metrics on %s\n", addr)
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}
}
