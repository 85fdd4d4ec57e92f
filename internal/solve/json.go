package solve

import (
	"encoding/json"
	"fmt"
	"time"
)

// MarshalJSON renders the cause as its String() form ("deadline", not
// 3), so job results and metrics labels stay readable.
func (c StopCause) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.String())
}

// UnmarshalJSON parses the string form written by MarshalJSON.
func (c *StopCause) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("solve: stop cause must be a string: %s", b)
	}
	switch s {
	case "none":
		*c = None
	case "optimal":
		*c = Optimal
	case "deadline":
		*c = Deadline
	case "cancelled":
		*c = Cancelled
	case "node-limit":
		*c = NodeLimit
	default:
		return fmt.Errorf("solve: unknown stop cause %q", s)
	}
	return nil
}

// statsJSON is the wire form of Stats: durations as Go duration
// strings ("15ms"), the stop cause as its name.
type statsJSON struct {
	SimplexIters  int       `json:"simplexIters,omitempty"`
	WarmPivots    int       `json:"warmPivots,omitempty"`
	ColdPivots    int       `json:"coldPivots,omitempty"`
	BasisPivots   int       `json:"basisPivots,omitempty"`
	Nodes         int       `json:"nodes,omitempty"`
	Incumbents    int       `json:"incumbents,omitempty"`
	Columns       int       `json:"columns,omitempty"`
	PricingRounds int       `json:"pricingRounds,omitempty"`
	MasterTime    string    `json:"masterTime,omitempty"`
	PricingTime   string    `json:"pricingTime,omitempty"`
	RoundingTime  string    `json:"roundingTime,omitempty"`
	Wall          string    `json:"wall,omitempty"`
	Stop          StopCause `json:"stop"`
}

func formatDuration(d time.Duration) string {
	if d == 0 {
		return ""
	}
	return d.String()
}

func parseDuration(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	return time.ParseDuration(s)
}

// MarshalJSON renders the stats with human-readable durations and a
// named stop cause.
func (s Stats) MarshalJSON() ([]byte, error) {
	return json.Marshal(statsJSON{
		SimplexIters:  s.SimplexIters,
		WarmPivots:    s.WarmPivots,
		ColdPivots:    s.ColdPivots,
		BasisPivots:   s.BasisPivots,
		Nodes:         s.Nodes,
		Incumbents:    s.Incumbents,
		Columns:       s.Columns,
		PricingRounds: s.PricingRounds,
		MasterTime:    formatDuration(s.MasterTime),
		PricingTime:   formatDuration(s.PricingTime),
		RoundingTime:  formatDuration(s.RoundingTime),
		Wall:          formatDuration(s.Wall),
		Stop:          s.Stop,
	})
}

// UnmarshalJSON parses the wire form written by MarshalJSON.
func (s *Stats) UnmarshalJSON(b []byte) error {
	var j statsJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	out := Stats{
		SimplexIters:  j.SimplexIters,
		WarmPivots:    j.WarmPivots,
		ColdPivots:    j.ColdPivots,
		BasisPivots:   j.BasisPivots,
		Nodes:         j.Nodes,
		Incumbents:    j.Incumbents,
		Columns:       j.Columns,
		PricingRounds: j.PricingRounds,
		Stop:          j.Stop,
	}
	var err error
	if out.MasterTime, err = parseDuration(j.MasterTime); err != nil {
		return fmt.Errorf("solve: masterTime: %w", err)
	}
	if out.PricingTime, err = parseDuration(j.PricingTime); err != nil {
		return fmt.Errorf("solve: pricingTime: %w", err)
	}
	if out.RoundingTime, err = parseDuration(j.RoundingTime); err != nil {
		return fmt.Errorf("solve: roundingTime: %w", err)
	}
	if out.Wall, err = parseDuration(j.Wall); err != nil {
		return fmt.Errorf("solve: wall: %w", err)
	}
	*s = out
	return nil
}
