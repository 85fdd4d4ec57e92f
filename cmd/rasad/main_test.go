package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test run this binary as rasad itself: with
// RASAD_RUN_MAIN set, the test binary runs main with the arguments
// after "--" instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("RASAD_RUN_MAIN") == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"rasad"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestServeRejectsUnknownPolicy checks rasad -serve exits non-zero at
// startup, naming the kind, when -policy is not a kind the server
// parses — including the retired gcn and race kinds — instead of
// serving a daemon that answers 400 to every job.
func TestServeRejectsUnknownPolicy(t *testing.T) {
	for _, kind := range []string{"gcn", "race", "quantum"} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^$", "--", "-serve", "127.0.0.1:0", "-policy", kind)
		cmd.Env = append(os.Environ(), "RASAD_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() <= 0 {
			t.Fatalf("-policy %s: exit %v, want a non-zero exit at startup; output:\n%s", kind, err, out)
		}
		if !strings.Contains(string(out), `unknown policy "`+kind+`"`) {
			t.Fatalf("-policy %s: output does not name the unknown policy:\n%s", kind, out)
		}
	}
}
