package lp_test

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"github.com/cloudsched/rasa/internal/lp"
	"github.com/cloudsched/rasa/internal/mip"
	"github.com/cloudsched/rasa/internal/solve"
)

// TestRoundingFixtures replays the two rounding MIPs under
// internal/mip/testdata (CG integer masters whose node LPs stalled the
// dual simplex; see the README there) at 4,096 nodes and no deadline.
// Every dual repair must end within its stall backstop, the backstop
// must fire, the search must stay under its pivot gate, and the status
// must be honest: the bound covers the best integral value either
// fixture is known to reach, and only a closed gap reads Optimal. It
// lives beside the backstop it watches; the fixtures belong to mip.
func TestRoundingFixtures(t *testing.T) {
	if raceEnabled {
		t.Skip("a single-goroutine replay of ~10 s under the race detector")
	}
	for _, fx := range []struct {
		file      string
		maxPivots int
		status    mip.Status
		best      float64 // best integral objective known
	}{
		// Exact optimum, with the stalled node solved cold.
		{"round_33x373.json", 120_000, mip.Optimal, 0.00311225151},
		// 678,656 pivots without the backstop; the parent's incumbent.
		{"round_32x246.json", 200_000, mip.Feasible, 0.00388521977},
	} {
		t.Run(fx.file, func(t *testing.T) {
			raw, err := os.ReadFile("../mip/testdata/" + fx.file)
			if err != nil {
				t.Fatal(err)
			}
			var p mip.Problem
			if err := json.Unmarshal(raw, &p); err != nil {
				t.Fatal(err)
			}
			repairs, stalls := 0, 0
			defer lp.WatchDualRepairs(func(pivots, limit int) {
				repairs++
				if pivots > limit {
					t.Errorf("a dual repair ran %d pivots past its backstop %d", pivots, limit)
				}
				if pivots == limit {
					stalls++
				}
			})()
			s, err := mip.Solve(context.Background(), &p, mip.Options{MaxNodes: 4096})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v after %d nodes, %d pivots (%d cold), objective %.9g, bound %.9g; %d dual repairs, %d stalled",
				s.Status, s.Nodes, s.Stats.SimplexIters, s.Stats.ColdPivots, s.Objective, s.Bound, repairs, stalls)
			if stalls == 0 {
				t.Error("the backstop never fired: the fixture no longer exercises it")
			}
			if s.Stats.SimplexIters > fx.maxPivots {
				t.Errorf("%d pivots, gate %d", s.Stats.SimplexIters, fx.maxPivots)
			}
			if s.Status != fx.status {
				t.Errorf("status %v, want %v", s.Status, fx.status)
			}
			slack := 1e-6 * math.Max(1, math.Abs(s.Objective))
			if s.Bound < fx.best-slack || s.Bound < s.Objective {
				t.Errorf("bound %.9g below the objective %.9g or the best known %.9g", s.Bound, s.Objective, fx.best)
			}
			if s.Status == mip.Optimal && (s.Bound > s.Objective+slack || s.Objective < fx.best-slack || s.Stats.Stop != solve.Optimal) {
				t.Errorf("optimal with objective %.9g, bound %.9g, stop %v", s.Objective, s.Bound, s.Stats.Stop)
			}
		})
	}
}
