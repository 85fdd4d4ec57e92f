package lifetime

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/cloudsched/rasa/internal/cluster"
	"github.com/cloudsched/rasa/internal/snapshot"
	"github.com/cloudsched/rasa/internal/workload"
)

// newTestLog builds two independent logs over identical copies of a
// generated cluster (snapshot round-trip per copy, so no aliasing).
func newTestLogs(t *testing.T, n int) []*Log {
	t.Helper()
	c, err := workload.Generate(workload.TrainingPresets()[2])
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	snap := snapshot.FromCluster(c.Problem, c.Original)
	out := make([]*Log, n)
	for i := range out {
		p, a, err := snap.ToCluster()
		if err != nil {
			t.Fatalf("to cluster: %v", err)
		}
		l, err := NewLog(p, a)
		if err != nil {
			t.Fatalf("new log: %v", err)
		}
		out[i] = l
	}
	return out
}

func mustAppend(t *testing.T, l *Log, events ...Event) {
	t.Helper()
	if _, err := l.Append(events...); err != nil {
		t.Fatalf("append: %v", err)
	}
}

// hostOf finds a machine hosting service s.
func hostOf(l *Log, s int) int {
	ms := l.Assignment().MachinesOf(s)
	if len(ms) == 0 {
		return -1
	}
	return ms[0]
}

func TestExecutionEventsFold(t *testing.T) {
	l := newTestLogs(t, 1)[0]
	p := l.Problem()
	s := 0
	src := hostOf(l, s)
	if src < 0 {
		t.Fatal("service 0 has no containers")
	}
	dst := (src + 1) % p.M()
	before := l.Assignment().Get(s, dst)

	// MoveStarted/MoveFailed are bookkeeping-only: no state change.
	fp0 := l.Fingerprint()
	mustAppend(t, l,
		MoveStarted{Op: OpCreate, Service: s, Machine: dst},
		MoveFailed{Op: OpCreate, Service: s, Machine: dst, Reason: "test"},
	)
	if l.Fingerprint() != fp0 {
		t.Fatal("MoveStarted/MoveFailed changed the folded state")
	}

	// MoveApplied mutates the placement cell by cell.
	mustAppend(t, l,
		MoveApplied{Op: OpCreate, Service: s, Machine: dst},
		MoveApplied{Op: OpDelete, Service: s, Machine: src},
	)
	if got := l.Assignment().Get(s, dst); got != before+1 {
		t.Fatalf("create landed %d, want %d", got, before+1)
	}

	// Deleting an absent container is an invalid event.
	empty := -1
	for m := 0; m < p.M(); m++ {
		if l.Assignment().Get(s, m) == 0 {
			empty = m
			break
		}
	}
	if empty >= 0 {
		if _, err := l.Append(MoveApplied{Op: OpDelete, Service: s, Machine: empty}); err == nil {
			t.Fatal("delete of absent container accepted")
		}
	}

	// MachineDied zeroes the machine and reports the evicted services.
	head := l.Head()
	mustAppend(t, l, MachineDied{Machine: dst})
	ents := l.Entries(head + 1)
	if len(ents) != 1 || len(ents[0].Touched) == 0 {
		t.Fatalf("death entry touched=%v", ents)
	}
	if l.Assignment().Get(s, dst) != 0 {
		t.Fatal("dead machine still hosts containers")
	}
	for _, v := range p.Machines[dst].Capacity {
		if v != 0 {
			t.Fatal("dead machine kept capacity")
		}
	}
	if d := l.DeadMachines(); len(d) != 1 || d[0] != dst {
		t.Fatalf("dead machines = %v", d)
	}
	// Idempotent: a second report of the same death is a no-op.
	mustAppend(t, l, MachineDied{Machine: dst})

	// Creating on a dead machine is invalid.
	if _, err := l.Append(MoveApplied{Op: OpCreate, Service: s, Machine: dst}); err == nil {
		t.Fatal("create on dead machine accepted")
	}
}

func TestPlanCommittedFold(t *testing.T) {
	l := newTestLogs(t, 1)[0]
	s := 0
	src := hostOf(l, s)
	dst := (src + 1) % l.Problem().M()
	b1, b2 := l.Assignment().Get(s, src), l.Assignment().Get(s, dst)

	// A proposed commit (Applied=false) leaves the state untouched but
	// counts toward fullRuns when it ran the full pipeline.
	fp := l.Fingerprint()
	mustAppend(t, l, PlanCommitted{Origin: "propose", Mode: "full", Moves: 3})
	if l.Fingerprint() != fp {
		t.Fatal("proposed commit mutated state")
	}
	if l.FullRuns() != 1 {
		t.Fatalf("fullRuns = %d, want 1", l.FullRuns())
	}

	// An applied commit verifies its Before cells and then applies.
	mustAppend(t, l, PlanCommitted{
		Origin: "reoptimize", Mode: "delta", Applied: true, Moves: 1,
		Changed: []PlacementDelta{
			{Service: s, Machine: src, Before: b1, After: b1 - 1},
			{Service: s, Machine: dst, Before: b2, After: b2 + 1},
		},
	})
	if got := l.Assignment().Get(s, dst); got != b2+1 {
		t.Fatalf("applied commit landed %d, want %d", got, b2+1)
	}
	if l.FullRuns() != 1 {
		t.Fatalf("delta commit bumped fullRuns to %d", l.FullRuns())
	}

	// Stale Before cells are refused (the state moved under the plan).
	_, err := l.Append(PlanCommitted{
		Origin: "reoptimize", Applied: true,
		Changed: []PlacementDelta{{Service: s, Machine: dst, Before: b2 + 99, After: 0}},
	})
	if err == nil || !strings.Contains(err.Error(), "commit expected") {
		t.Fatalf("stale commit error = %v", err)
	}
}

func TestFingerprintOrderIndependence(t *testing.T) {
	ls := newTestLogs(t, 3)
	a, b, c := ls[0], ls[1], ls[2]
	s := 0
	src := hostOf(a, s)
	dst := (src + 1) % a.Problem().M()

	// Same content via different event orders.
	mustAppend(t, a,
		UpdateAffinity{A: 0, B: 1, Weight: 2.5},
		UpdateAffinity{A: 2, B: 3, Weight: 1.25},
		MoveApplied{Op: OpCreate, Service: s, Machine: dst},
		MoveApplied{Op: OpCreate, Service: s, Machine: src},
	)
	mustAppend(t, b,
		MoveApplied{Op: OpCreate, Service: s, Machine: src},
		UpdateAffinity{A: 2, B: 3, Weight: 1.25},
		MoveApplied{Op: OpCreate, Service: s, Machine: dst},
		UpdateAffinity{A: 0, B: 1, Weight: 2.5},
	)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical content, different fingerprints")
	}

	// Different content must differ.
	mustAppend(t, c,
		UpdateAffinity{A: 0, B: 1, Weight: 2.5},
		UpdateAffinity{A: 2, B: 3, Weight: 1.25},
		MoveApplied{Op: OpCreate, Service: s, Machine: dst},
	)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different content, same fingerprint")
	}
	// Replica-target changes are content too, even with placements equal.
	fp := a.Fingerprint()
	mustAppend(t, a, ScaleService{Service: s, Replicas: a.Problem().Services[s].Replicas + 1})
	if a.Fingerprint() == fp {
		t.Fatal("replica target change did not move the fingerprint")
	}
}

func TestTraceReplayDeterminism(t *testing.T) {
	c, err := workload.Generate(workload.TrainingPresets()[2])
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	snap := snapshot.FromCluster(c.Problem, c.Original)
	p, a, err := snap.ToCluster()
	if err != nil {
		t.Fatalf("to cluster: %v", err)
	}
	l, err := NewLog(p, a)
	if err != nil {
		t.Fatalf("new log: %v", err)
	}
	s := 0
	src := hostOf(l, s)
	dst := (src + 1) % p.M()
	mustAppend(t, l, ScaleService{Service: s, Replicas: p.Services[s].Replicas + 2})
	l.AdvanceTick()
	mustAppend(t, l,
		PlanCommitted{Origin: "propose", Mode: "full", Moves: 2},
		MoveStarted{Op: OpCreate, Service: s, Machine: dst},
		MoveApplied{Op: OpCreate, Service: s, Machine: dst},
		MachineDied{Machine: src},
		ReplanRequested{Reason: "machine-down"},
	)

	tr := l.Export(snap, 42, "T3", &Summary{Ticks: 2, Events: int(l.Head())})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Fingerprint != l.Fingerprint() {
		t.Fatal("trace fingerprint diverged from live log")
	}

	// Replay is a pure fold: fingerprint, head, tick stamps, and
	// fullRuns all reproduce.
	rl, err := Replay(got)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rl.Fingerprint() != got.Fingerprint {
		t.Fatalf("replayed fingerprint %s, want %s", rl.Fingerprint(), got.Fingerprint)
	}
	if rl.Head() != l.Head() || rl.Tick() != l.Tick() || rl.FullRuns() != l.FullRuns() {
		t.Fatalf("replayed head/tick/fullRuns = %d/%d/%d, want %d/%d/%d",
			rl.Head(), rl.Tick(), rl.FullRuns(), l.Head(), l.Tick(), l.FullRuns())
	}
	// Replaying a prefix reconstructs the mid-run state (checkpoint
	// resume): cut before the death.
	prefix := *got
	prefix.Events = prefix.Events[:len(prefix.Events)-2]
	pl, err := Replay(&prefix)
	if err != nil {
		t.Fatalf("prefix replay: %v", err)
	}
	if len(pl.DeadMachines()) != 0 {
		t.Fatal("prefix replay saw the death it was cut before")
	}

	// A gap in the sequence numbers is refused.
	gap := *got
	gap.Events = append([]EntryJSON(nil), got.Events...)
	gap.Events[2].Seq = 99
	if _, err := Replay(&gap); err == nil || !strings.Contains(err.Error(), "gap or reorder") {
		t.Fatalf("seq gap error = %v", err)
	}
	// Version mismatch is refused at read time.
	bad := bytes.NewBufferString(`{"version":"rasa-lifetime-trace/9","events":[]}`)
	if _, err := ReadTrace(bad); err == nil {
		t.Fatal("unknown trace version accepted")
	}
	// A trace without a snapshot cannot replay.
	nosnap := *got
	nosnap.Snapshot = nil
	if _, err := Replay(&nosnap); err == nil {
		t.Fatal("snapshot-less trace replayed")
	}
}

// TestTraceRoundTrip builds a trace from per-tick churn batches and
// checks it survives the wire: entries keep their batch's tick (an
// empty batch leaves a gap), events decode to what was encoded, the
// recorded fingerprint replays, and building the trace left the
// snapshot untouched even though a drain zeroes capacity in the fold.
func TestTraceRoundTrip(t *testing.T) {
	c, err := workload.Generate(workload.TrainingPresets()[2])
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	snap := snapshot.FromCluster(c.Problem, c.Original)
	before, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]Event{
		{ScaleService{Service: 0, Replicas: 4}, UpdateAffinity{A: 1, B: 2, Weight: 0.5}},
		nil,
		{DrainMachine{Machine: 7}},
		{AddMachine{Name: "x", Capacity: c.Problem.Machines[0].Capacity.Clone(), Spec: -1}, RemoveService{Service: 0}},
	}
	tr, err := NewTrace(snap, 42, "T3", batches)
	if err != nil {
		t.Fatalf("new trace: %v", err)
	}
	if after, _ := json.Marshal(snap); !bytes.Equal(before, after) {
		t.Fatal("building the trace mutated its snapshot")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var ticks []int
	var events []Event
	for _, e := range got.Events {
		ev, err := e.Event()
		if err != nil {
			t.Fatalf("decode entry %d: %v", e.Seq, err)
		}
		ticks = append(ticks, e.Tick)
		events = append(events, ev)
	}
	if want := []int{0, 0, 2, 3, 3}; !reflect.DeepEqual(ticks, want) {
		t.Fatalf("entry ticks %v, want %v", ticks, want)
	}
	var flat []Event
	for _, b := range batches {
		flat = append(flat, b...)
	}
	if !reflect.DeepEqual(events, flat) {
		t.Fatalf("decoded events %#v, want %#v", events, flat)
	}
	rl, err := Replay(got)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rl.Fingerprint() != got.Fingerprint || rl.Tick() != 3 {
		t.Fatalf("replay fingerprint %s tick %d, want %s tick 3", rl.Fingerprint(), rl.Tick(), got.Fingerprint)
	}

	// An event that does not apply in order fails the build.
	if _, err := NewTrace(snap, 0, "", [][]Event{{ScaleService{Service: c.Problem.N(), Replicas: 1}}}); err == nil {
		t.Fatal("trace with an out-of-range event built")
	}
	// An unknown event type fails decode, alone and inside a trace.
	if _, err := DecodeEvents([]EventJSON{{Type: "nope"}}); err == nil {
		t.Fatal("unknown event type decoded")
	}
	bad := *got
	bad.Events = []EntryJSON{{Seq: 1, EventJSON: EventJSON{Type: "nope"}}}
	if _, err := Replay(&bad); err == nil || !strings.Contains(err.Error(), "unknown event type") {
		t.Fatalf("unknown event type replay error = %v", err)
	}
	// A commit to a negative container count is refused, not a panic.
	neg := PlanCommitted{Applied: true, Changed: []PlacementDelta{{Service: 0, Machine: 0, Before: c.Original.Get(0, 0), After: -1}}}
	bad.Events = []EntryJSON{{Seq: 1, EventJSON: ToJSON(neg)}}
	if _, err := Replay(&bad); err == nil || !strings.Contains(err.Error(), "negative target") {
		t.Fatalf("negative commit target replay error = %v", err)
	}
}

// TestReadTraceTrailingData: a trace file holds one trace. Whitespace
// after it is fine; garbage or a second trace is an error that says so.
func TestReadTraceTrailingData(t *testing.T) {
	c, err := workload.Generate(workload.TrainingPresets()[2])
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	tr, err := NewTrace(snapshot.FromCluster(c.Problem, c.Original), 1, "T3", [][]Event{{ScaleService{Service: 0, Replicas: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	body := buf.String() // WriteTrace ends the trace with a newline
	for _, tc := range []struct {
		name, data string
		ok         bool
	}{
		{"trailing newline", body, true},
		{"trailing whitespace", body + " \t\r\n", true},
		{"garbage", body + "trailing-garbage", false},
		{"second trace", body + body, false},
	} {
		_, err := ReadTrace(strings.NewReader(tc.data))
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "trailing data")) {
			t.Errorf("%s: error %v, want a trailing-data error", tc.name, err)
		}
	}
}

// TestStripSurplusMatchesOneAtATime checks the bulk scale-down strip
// against its definition — evict one container at a time from the
// machine hosting the most, ties to the lowest index — on random
// spreads and surpluses, and that a hostile count strips without
// stepping through it.
func TestStripSurplusMatchesOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		m := 1 + rng.Intn(6)
		want, got := cluster.NewAssignment(1, m), cluster.NewAssignment(1, m)
		for j := 0; j < m; j++ {
			c := rng.Intn(5)
			want.Set(0, j, c)
			got.Set(0, j, c)
		}
		placed := want.Placed(0)
		if placed == 0 {
			continue
		}
		surplus := rng.Intn(placed) // keeps at least one container
		for k := 0; k < surplus; k++ {
			best, bestCount := -1, 0
			for _, j := range want.MachinesOf(0) {
				if c := want.Get(0, j); c > bestCount {
					best, bestCount = j, c
				}
			}
			want.Add(0, best, -1)
		}
		stripSurplus(got, 0, surplus)
		for j := 0; j < m; j++ {
			if got.Get(0, j) != want.Get(0, j) {
				t.Fatalf("trial %d, surplus %d: machine %d has %d, want %d", trial, surplus, j, got.Get(0, j), want.Get(0, j))
			}
		}
	}

	a := cluster.NewAssignment(1, 3)
	a.Set(0, 0, 1e12)
	a.Set(0, 1, 1e12)
	a.Set(0, 2, 3)
	stripSurplus(a, 0, a.Placed(0)-5)
	if a.Get(0, 0) != 1 || a.Get(0, 1) != 2 || a.Get(0, 2) != 2 {
		t.Fatalf("hostile strip left %d/%d/%d, want 1/2/2", a.Get(0, 0), a.Get(0, 1), a.Get(0, 2))
	}
}
