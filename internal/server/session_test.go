package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/graph"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/workload"
)

// TestShardedSessionIncrMetrics checks that every block engine of a
// sharded session publishes the rasa_incr_* series into the server
// registry: one full pass per block on bootstrap, and one event count
// per routed scale event.
func TestShardedSessionIncrMetrics(t *testing.T) {
	s := New(Config{Workers: 1, Shards: 2})
	defer s.Shutdown(t.Context())
	blocks := installShardedCluster(t, s)

	const fulls = `rasa_incr_reoptimize_total{mode="full"}`
	const scales = `rasa_incr_events_total{type="scaleService"}`
	before := metricValue(t, s, fulls)
	if rec := postObj(t, s, "/v1/cluster/reoptimize", nil); rec.Code != http.StatusOK {
		t.Fatalf("bootstrap: %d %s", rec.Code, rec.Body)
	}
	if got := metricValue(t, s, fulls) - before; got != float64(blocks) {
		t.Fatalf("%s grew by %v, want one per block (%d)", fulls, got, blocks)
	}

	before = metricValue(t, s, scales)
	rec := postObj(t, s, "/v1/cluster/events", map[string]any{
		"events": []map[string]any{
			{"type": "scaleService", "service": 0, "replicas": 9},
			{"type": "drainMachine", "machine": 1},
			{"type": "scaleService", "service": 5, "replicas": 4},
			{"type": "scaleService", "service": 20, "replicas": 3},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("events: %d %s", rec.Code, rec.Body)
	}
	if got := metricValue(t, s, scales) - before; got != 3 {
		t.Fatalf("%s grew by %v, want 3", scales, got)
	}
}

// TestSessionAllowanceCoversShardLoad checks that the session deadline
// grows with the most blocks one shard worker proposes in turn: all
// three on one shard, and one each at three shards, where blocks are
// dealt round-robin.
func TestSessionAllowanceCoversShardLoad(t *testing.T) {
	c, err := workload.Generate(workload.Preset{
		Name: "threezone", Services: 30, Containers: 180, Machines: 9,
		Beta: 1.7, AffinityFraction: 0.6, Zones: 3, CommunitySize: 6,
		Utilization: 0.5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ shards, most int }{{1, 3}, {3, 1}} {
		shards := tc.shards
		s := New(Config{Workers: 1, Shards: shards})
		defer s.Shutdown(t.Context())
		rec := postObj(t, s, "/v1/cluster", map[string]any{
			"snapshot": snapshot.FromCluster(c.Problem, c.Original),
			"options":  map[string]any{"budget": "1s"},
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("shards=%d install: %d %s", shards, rec.Code, rec.Body)
		}
		rec = getPath(t, s, "/v1/shards")
		var topo struct {
			Shards []struct {
				Blocks []int `json:"blocks"`
			} `json:"shards"`
			Blocks []struct{} `json:"blocks"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &topo); err != nil {
			t.Fatal(err)
		}
		most := 0
		for _, sh := range topo.Shards {
			most = max(most, len(sh.Blocks))
		}
		if len(topo.Shards) != shards || len(topo.Blocks) != 3 || most != tc.most {
			t.Fatalf("shards=%d: topology %s", shards, rec.Body)
		}
		if got, want := s.session().allowance(), time.Duration(tc.most)*(2*time.Second+budgetGrace); got != want {
			t.Fatalf("shards=%d: allowance %v, want %v", shards, got, want)
		}
	}
}

// TestRemoveLastServiceOfBlock pins the one event a multi-block session
// refuses that one engine over the whole cluster would accept: removing
// the last service of a compatibility block. The batch stops there, and
// the events before it stay applied.
func TestRemoveLastServiceOfBlock(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(t.Context())

	// Services 0 and 1 may run on machines 0-1 only, service 2 on
	// machines 2-3 only: two blocks, the second holding one service.
	p := &cluster.Problem{
		ResourceNames: []string{"cpu", "mem"},
		Services: []cluster.Service{
			{Name: "a0", Replicas: 2, Request: cluster.Resources{1, 1}},
			{Name: "a1", Replicas: 2, Request: cluster.Resources{1, 1}},
			{Name: "b0", Replicas: 2, Request: cluster.Resources{1, 1}},
		},
		Machines: []cluster.Machine{
			{Name: "m0", Capacity: cluster.Resources{10, 10}},
			{Name: "m1", Capacity: cluster.Resources{10, 10}},
			{Name: "m2", Capacity: cluster.Resources{10, 10}},
			{Name: "m3", Capacity: cluster.Resources{10, 10}},
		},
		Affinity: graph.New(3),
	}
	p.Affinity.AddEdge(0, 1, 1)
	zone := func(machines ...int) cluster.Bitmap {
		bm := cluster.NewBitmap(4)
		for _, m := range machines {
			bm.Set(m)
		}
		return bm
	}
	p.Schedulable = []cluster.Bitmap{zone(0, 1), zone(0, 1), zone(2, 3)}
	a := cluster.NewAssignment(3, 4)
	a.Set(0, 0, 2)
	a.Set(1, 1, 2)
	a.Set(2, 2, 2)
	rec := postObj(t, s, "/v1/cluster", map[string]any{"snapshot": snapshot.FromCluster(p, a)})
	if rec.Code != http.StatusOK {
		t.Fatalf("install: %d %s", rec.Code, rec.Body)
	}
	var inst struct {
		Blocks int `json:"blocks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &inst); err != nil || inst.Blocks != 2 {
		t.Fatalf("install: %v %s", err, rec.Body)
	}

	rec = postObj(t, s, "/v1/cluster/events", map[string]any{
		"events": []map[string]any{
			{"type": "scaleService", "service": 0, "replicas": 3},
			{"type": "removeService", "service": 2},
			{"type": "scaleService", "service": 1, "replicas": 3},
		},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("removing a block's last service: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Applied int       `json:"applied"`
		Error   errorBody `json:"error"`
		Stats   struct {
			Services int `json:"services"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 1 || resp.Error.Code != codeInvalidRequest || !strings.Contains(resp.Error.Message, "last service of compatibility block") {
		t.Fatalf("refused batch response %s", rec.Body)
	}
	if resp.Stats.Services != 3 {
		t.Fatalf("services after the refused batch: %d, want 3", resp.Stats.Services)
	}

	// The log holds exactly the event before the refused one.
	rec = getPath(t, s, "/v1/cluster/log")
	var lg struct {
		Head    uint64 `json:"head"`
		Entries []struct {
			Type    string `json:"type"`
			Service int    `json:"service"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &lg); err != nil {
		t.Fatal(err)
	}
	if lg.Head != 1 || len(lg.Entries) != 1 || lg.Entries[0].Type != "scaleService" || lg.Entries[0].Service != 0 {
		t.Fatalf("log after the refused batch %s", rec.Body)
	}
}
