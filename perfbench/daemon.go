package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// maxConns bounds the benchmark's connections to the daemon: at most
// nproc on the 2-core host the workloads were sized on.
const maxConns = 2

// daemon is a rasad -serve process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	// exited is closed once the process has ended; waitErr is then its
	// exit status.
	exited  chan struct{}
	waitErr error
}

// startDaemon starts rasad -serve on a free loopback port with the given
// extra flags and waits until /healthz answers.
func startDaemon(rasad string, flags ...string) (*daemon, error) {
	if rasad == "" {
		return nil, errors.New("HTTP workloads need -rasad PATH")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(rasad, append([]string{"-serve", addr}, flags...)...)
	// Standard output carries only the benchmark's own lines.
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// Should the benchmark die without stopping it, the daemon gets
	// SIGTERM rather than outliving the run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rasad: %w", err)
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
		}},
		exited: make(chan struct{}),
	}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if resp, err := d.client.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("rasad exited before serving: %v", d.waitErr)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("rasad did not answer /healthz within 10s")
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited within 30 s. It returns once the process has ended.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// call sends a request, requires a 2xx answer, and decodes it into out
// (when non-nil). It returns the body size.
func (d *daemon) call(method, path string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(raw), fmt.Errorf("%s %s: read: %w", method, path, err)
	}
	if httpOutcome(resp.StatusCode) != opOK {
		return len(raw), &statusError{status: resp.StatusCode, body: string(raw)}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return len(raw), fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return len(raw), nil
}

// statusError is a non-2xx answer.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string {
	if len(e.body) > 200 {
		return fmt.Sprintf("status %d: %s...", e.status, e.body[:200])
	}
	return fmt.Sprintf("status %d: %s", e.status, e.body)
}

// classify maps a request error to its outcome: a non-2xx answer is a
// refusal, anything else an error.
func classify(err error) outcome {
	var se *statusError
	if errors.As(err, &se) {
		return opRefused
	}
	return opError
}
