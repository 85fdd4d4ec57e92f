package solve

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestStopCauseJSONRoundTrip(t *testing.T) {
	for c := None; c <= NodeLimit; c++ {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + c.String() + `"`; string(b) != want {
			t.Fatalf("marshal %v = %s, want %s", c, b, want)
		}
		var back StopCause
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != c {
			t.Fatalf("round trip %v -> %v", c, back)
		}
	}
}

// TestStopCauseJSONLegacyNumeric checks the decoder takes only the
// string form: the numeric encoding of early versions is rejected like
// an unknown name.
func TestStopCauseJSONLegacyNumeric(t *testing.T) {
	for _, in := range []string{"2", "99", `"bogus"`, "null"} {
		c := Optimal
		if err := json.Unmarshal([]byte(in), &c); err == nil {
			t.Fatalf("stop cause %s accepted as %v", in, c)
		}
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	s := Stats{
		SimplexIters: 1200, WarmPivots: 900, ColdPivots: 300,
		Nodes: 34, Incumbents: 3, Columns: 56, PricingRounds: 7,
		MasterTime: 15 * time.Millisecond, PricingTime: 9 * time.Millisecond,
		RoundingTime: 2 * time.Millisecond, Wall: 31 * time.Millisecond,
		Stop: Deadline,
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"stop":"deadline"`) {
		t.Fatalf("stop cause not rendered as name: %s", b)
	}
	if !strings.Contains(string(b), `"wall":"31ms"`) {
		t.Fatalf("wall not rendered as duration string: %s", b)
	}
	var back Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", back, s)
	}
}

func TestStatsJSONZeroOmitsDurations(t *testing.T) {
	b, err := json.Marshal(Stats{Stop: Optimal})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "wall") || strings.Contains(string(b), "masterTime") {
		t.Fatalf("zero durations not omitted: %s", b)
	}
	var back Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Stop != Optimal {
		t.Fatalf("stop drifted: %v", back.Stop)
	}
}

func TestStatsJSONBadDuration(t *testing.T) {
	var s Stats
	if err := json.Unmarshal([]byte(`{"wall":"not-a-duration"}`), &s); err == nil {
		t.Fatal("bad duration accepted")
	}
}
