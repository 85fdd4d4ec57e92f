package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/cloudsched/rasa/internal/core"
	"github.com/cloudsched/rasa/internal/pool"
	"github.com/cloudsched/rasa/internal/selector"
	"github.com/cloudsched/rasa/internal/snapshot"
)

// optionsJSON is the structured "options" object of POST /v1/jobs and
// POST /v1/cluster:
//
//	{"options": {"partition": "multistage",
//	             "policy": {"kind": "cg"},
//	             "budget": "2s", ...}}
//
// Fields the object leaves unset take the server defaults.
type optionsJSON struct {
	// Partition picks the partitioner: multistage (default), random,
	// kway, or none.
	Partition string `json:"partition,omitempty"`
	// Policy picks the algorithm-selection policy; see policyJSON.
	Policy *policyJSON `json:"policy,omitempty"`
	// Budget is the per-job (or full-pipeline, for the cluster session)
	// optimization budget.
	Budget        duration `json:"budget,omitempty"`
	MinAlive      float64  `json:"minAlive,omitempty"`
	SkipMigration bool     `json:"skipMigration,omitempty"`
	Parallelism   int      `json:"parallelism,omitempty"`
	Seed          int64    `json:"seed,omitempty"`

	// Incremental-session knobs (POST /v1/cluster only; ignored by
	// /v1/jobs).
	DeltaBudget    duration `json:"deltaBudget,omitempty"`
	DriftThreshold float64  `json:"driftThreshold,omitempty"`
	MaxDirtyRatio  float64  `json:"maxDirtyRatio,omitempty"`
	ForceFull      bool     `json:"forceFull,omitempty"`
}

// policyJSON selects an algorithm-selection policy.
type policyJSON struct {
	// Kind: heuristic (default), cg, or mip.
	Kind string `json:"kind"`
}

// reqOptions is the validated, resolved form every option-carrying
// request decodes into.
type reqOptions struct {
	strategy       core.Strategy
	policy         selector.Policy
	budget         time.Duration
	minAlive       float64
	skipMigration  bool
	parallelism    int
	seed           int64
	deltaBudget    time.Duration
	driftThreshold float64
	maxDirtyRatio  float64
	forceFull      bool
}

// movedKeys maps each option field that older clients sent at the top
// level of a wrapped body to where it lives now.
var movedKeys = map[string]string{
	"strategy":       "options.partition",
	"policy":         "options.policy.kind",
	"budget":         "options.budget",
	"minAlive":       "options.minAlive",
	"skipMigration":  "options.skipMigration",
	"parallelism":    "options.parallelism",
	"seed":           "options.seed",
	"deltaBudget":    "options.deltaBudget",
	"driftThreshold": "options.driftThreshold",
	"maxDirtyRatio":  "options.maxDirtyRatio",
	"forceFull":      "options.forceFull",
}

// readSnapshotRequest reads the body of POST /v1/jobs and POST
// /v1/cluster and resolves its options. On any error it answers 400
// and returns ok=false.
func (s *Server) readSnapshotRequest(w http.ResponseWriter, r *http.Request) (*snapshot.Snapshot, reqOptions, bool) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return nil, reqOptions{}, false
	}
	snap, o, err := decodeSnapshotRequest(raw)
	var ro reqOptions
	if err == nil {
		ro, err = s.decodeOptions(o)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
		return nil, reqOptions{}, false
	}
	return snap, ro, true
}

// decodeSnapshotRequest parses a snapshot-carrying body. A body with a
// top-level "snapshot" key is wrapped and may carry no other top-level
// key than "options", so a field the API no longer reads fails loudly
// instead of silently taking its default. Any other body is read as a
// bare snapshot (rasagen output piped straight in), with every option
// at its default. The bodies clients send take decodeCommon; the rest,
// errors included, go through encoding/json below.
func decodeSnapshotRequest(raw []byte) (*snapshot.Snapshot, *optionsJSON, error) {
	if snap, o, ok := decodeCommon(raw); ok {
		return snap, o, nil
	}
	var req struct {
		Snapshot *snapshot.Snapshot `json:"snapshot"`
		Options  *optionsJSON       `json:"options"`
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, nil, fmt.Errorf("malformed JSON: %w", err)
	}
	if req.Snapshot == nil {
		var snap snapshot.Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil || (snap.Version == 0 && len(snap.Services) == 0) {
			return nil, nil, errors.New(`missing snapshot (send {"snapshot": {...}, "options": {...}} or a bare snapshot object)`)
		}
		return &snap, nil, nil
	}
	if key := strayKey(raw); key != "" {
		if to, ok := movedKeys[key]; ok {
			return nil, nil, fmt.Errorf("top-level field %q is no longer read: set %s instead", key, to)
		}
		return nil, nil, fmt.Errorf(`unknown top-level field %q: a wrapped request carries only "snapshot" and "options"`, key)
	}
	return req.Snapshot, req.Options, nil
}

// decodeCommon reads the bodies clients send: a wrapped object with a
// non-null "snapshot" and at most an "options" beside it, or a bare
// snapshot with neither key. The snapshot's bytes go straight to
// Snapshot.UnmarshalJSON, so encoding/json's validity scan never walks
// the multi-megabyte body first, and a bare snapshot is decoded once.
// ok=false, for any other body and on any decode error, leaves the
// body to decodeSnapshotRequest's encoding/json path, whose values and
// error texts this path matches wherever it succeeds.
func decodeCommon(raw []byte) (*snapshot.Snapshot, *optionsJSON, bool) {
	snapVal, optVal, other, ok := topLevel(raw)
	if !ok {
		return nil, nil, false
	}
	var snap snapshot.Snapshot
	if snapVal == nil {
		if optVal != nil || snap.UnmarshalJSON(raw) != nil || (snap.Version == 0 && len(snap.Services) == 0) {
			return nil, nil, false
		}
		return &snap, nil, true
	}
	if other || string(snapVal) == "null" || snap.UnmarshalJSON(snapVal) != nil {
		return nil, nil, false
	}
	var o *optionsJSON
	if optVal != nil && json.Unmarshal(optVal, &o) != nil {
		return nil, nil, false
	}
	return &snap, o, true
}

// topLevel splits the object raw holds into the values of its
// "snapshot" and "options" keys and reports whether it has another
// key. It checks the object's own punctuation only; each value's
// decoder checks the value. ok=false when raw is not one object, or a
// key is repeated, escaped, not printable ASCII, or a spelling of
// "snapshot" or "options" that encoding/json would fold onto them.
func topLevel(raw []byte) (snapVal, optVal []byte, other, ok bool) {
	i := skipSpace(raw, 0)
	if i == len(raw) || raw[i] != '{' {
		return nil, nil, false, false
	}
	if i = skipSpace(raw, i+1); i < len(raw) && raw[i] == '}' {
		return nil, nil, false, skipSpace(raw, i+1) == len(raw)
	}
	for {
		if i == len(raw) || raw[i] != '"' {
			return nil, nil, false, false
		}
		end := i + 1
		for ; end < len(raw) && raw[end] != '"'; end++ {
			if c := raw[end]; c == '\\' || c < 0x20 || c > 0x7e {
				return nil, nil, false, false
			}
		}
		if end == len(raw) {
			return nil, nil, false, false
		}
		key := string(raw[i+1 : end])
		if i = skipSpace(raw, end+1); i == len(raw) || raw[i] != ':' {
			return nil, nil, false, false
		}
		start := skipSpace(raw, i+1)
		if i = skipValue(raw, start); i < 0 {
			return nil, nil, false, false
		}
		switch val := raw[start:i]; {
		case key == "snapshot" && snapVal == nil:
			snapVal = val
		case key == "options" && optVal == nil:
			optVal = val
		case strings.EqualFold(key, "snapshot") || strings.EqualFold(key, "options"):
			return nil, nil, false, false
		default:
			other = true
		}
		i = skipSpace(raw, i)
		switch {
		case i < len(raw) && raw[i] == ',':
			i = skipSpace(raw, i+1)
		case i < len(raw) && raw[i] == '}':
			return snapVal, optVal, other, skipSpace(raw, i+1) == len(raw)
		default:
			return nil, nil, false, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(raw []byte, i int) int {
	for i < len(raw) && strings.IndexByte(" \t\r\n", raw[i]) >= 0 {
		i++
	}
	return i
}

// skipValue returns the end of the value that starts at raw[i], -1 if
// none does. It follows strings and nesting only: a literal or number
// runs to the next delimiter, and the value's decoder judges it.
func skipValue(raw []byte, i int) int {
	if i == len(raw) {
		return -1
	}
	switch raw[i] {
	case '"':
		return skipString(raw, i)
	case '{', '[':
		depth := 0
		for ; i < len(raw); i++ {
			switch raw[i] {
			case '"':
				if i = skipString(raw, i) - 1; i < 0 {
					return -1
				}
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return -1
	}
	start := i
	for i < len(raw) && strings.IndexByte(",}] \t\r\n", raw[i]) < 0 {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// skipString returns the end of the string that starts at raw[i], -1
// if it does not end.
func skipString(raw []byte, i int) int {
	for i++; i < len(raw); i++ {
		switch raw[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// strayKey returns the first key of the top-level object in raw other
// than "snapshot" and "options", or "" if there is none. raw must be
// valid JSON. It scans instead of decoding, so checking a multi-megabyte
// snapshot body costs one pass over its bytes.
func strayKey(raw []byte) string {
	depth := 0
	for i := 0; i < len(raw); i++ {
		switch raw[i] {
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case '"':
			end := i + 1
			for ; raw[end] != '"'; end++ {
				if raw[end] == '\\' {
					end++
				}
			}
			next := end + 1
			for next < len(raw) && strings.IndexByte(" \t\r\n", raw[next]) >= 0 {
				next++
			}
			if depth == 1 && next < len(raw) && raw[next] == ':' {
				var key string
				if json.Unmarshal(raw[i:end+1], &key) == nil && key != "snapshot" && key != "options" {
					return key
				}
			}
			i = end
		}
	}
	return ""
}

// decodeOptions validates a request's options object (nil means all
// defaults), fills in the server defaults, and clamps the budget. It
// is the single options decoder behind POST /v1/jobs and POST
// /v1/cluster.
func (s *Server) decodeOptions(o *optionsJSON) (reqOptions, error) {
	var eff optionsJSON
	if o != nil {
		eff = *o
	}
	var out reqOptions
	var err error
	if out.strategy, err = parsePartition(eff.Partition); err != nil {
		return reqOptions{}, err
	}
	kind := s.cfg.Policy
	if eff.Policy != nil && eff.Policy.Kind != "" {
		kind = eff.Policy.Kind
	}
	if out.policy, err = ParsePolicy(kind); err != nil {
		return reqOptions{}, err
	}
	if eff.MinAlive < 0 || eff.MinAlive > 1 {
		return reqOptions{}, fmt.Errorf("minAlive %v outside [0, 1]", eff.MinAlive)
	}
	out.budget = time.Duration(eff.Budget)
	if out.budget <= 0 {
		out.budget = s.cfg.DefaultBudget
	}
	if out.budget > s.cfg.MaxBudget {
		out.budget = s.cfg.MaxBudget
	}
	out.minAlive = eff.MinAlive
	out.skipMigration = eff.SkipMigration
	out.parallelism = eff.Parallelism
	out.seed = eff.Seed
	if out.seed == 0 {
		out.seed = 1
	}
	out.deltaBudget = time.Duration(eff.DeltaBudget)
	out.driftThreshold = eff.DriftThreshold
	out.maxDirtyRatio = eff.MaxDirtyRatio
	out.forceFull = eff.ForceFull
	return out, nil
}

// parsePartition maps the wire partitioner name to a core.Strategy.
func parsePartition(s string) (core.Strategy, error) {
	switch strings.ToLower(s) {
	case "", "multistage", "multi-stage", "multi-stage-partition":
		return core.Multistage, nil
	case "random", "random-partition":
		return core.RandomPartition, nil
	case "kway", "k-way", "kahip":
		return core.KWayPartition, nil
	case "none", "no-partition":
		return core.NoPartition, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want multistage, random, kway, or none)", s)
}

// ParsePolicy maps a policy kind — heuristic (or empty), cg, or mip — to
// its selection policy. It is the one kind parser: request options and
// rasad's -policy flag both go through it.
func ParsePolicy(kind string) (selector.Policy, error) {
	switch strings.ToLower(kind) {
	case "", "heuristic":
		return selector.Heuristic{}, nil
	case "cg":
		return selector.Fixed{Algorithm: pool.CG}, nil
	case "mip":
		return selector.Fixed{Algorithm: pool.MIP}, nil
	}
	return nil, fmt.Errorf("unknown policy %q (want heuristic, cg, or mip)", kind)
}
