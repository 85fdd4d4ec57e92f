package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// postRaw posts JSON and returns the raw response (for header checks)
// plus the decoded body.
func postRaw(t *testing.T, url string, body []byte) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// TestOptionsFormsAndDeprecation drives submissions through the one
// request dialect, {"snapshot", "options"}: the structured options
// object is honoured, and every retired top-level option field — alone
// or beside an options object — answers 400 invalid_request naming
// its options.* replacement instead of silently taking its default.
func TestOptionsFormsAndDeprecation(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, DefaultBudget: 300 * time.Millisecond})
	snap := testSnapshot(t, 5)

	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantErr    string
	}{
		{
			name:       "legacy top-level strategy and policy",
			body:       `{"snapshot": %s, "strategy": "random", "policy": "cg", "skipMigration": true}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    `"strategy" is no longer read: set options.partition`,
		},
		{
			name:       "structured options object",
			body:       `{"snapshot": %s, "options": {"partition": "random", "policy": {"kind": "cg"}, "skipMigration": true}}`,
			wantStatus: http.StatusAccepted,
		},
		{
			name:       "options with non-policy legacy siblings",
			body:       `{"snapshot": %s, "budget": "5s", "options": {"policy": {"kind": "cg"}, "skipMigration": true}}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    `"budget" is no longer read: set options.budget`,
		},
		{
			name:       "mixed legacy strings and options object",
			body:       `{"snapshot": %s, "strategy": "random", "options": {"policy": {"kind": "cg"}}}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    `"strategy" is no longer read: set options.partition`,
		},
		{
			name:       "unknown top-level key",
			body:       `{"snapshot": %s, "options": {}, "priority": 3}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    `unknown top-level field "priority"`,
		},
		{
			name:       "bad options policy kind",
			body:       `{"snapshot": %s, "options": {"policy": {"kind": "quantum"}}}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    "unknown policy",
		},
		{
			name:       "retired policy kind gcn",
			body:       `{"snapshot": %s, "options": {"policy": {"kind": "gcn"}}}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    "unknown policy",
		},
		{
			name:       "retired policy kind race",
			body:       `{"snapshot": %s, "options": {"policy": {"kind": "race"}}}`,
			wantStatus: http.StatusBadRequest,
			wantErr:    "unknown policy",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRaw(t, ts.URL+"/v1/jobs", []byte(fmt.Sprintf(tc.body, snap)))
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %v", resp.StatusCode, tc.wantStatus, body)
			}
			if tc.wantErr != "" {
				if code, msg := errEnvelope(body); code != codeInvalidRequest || !strings.Contains(msg, tc.wantErr) {
					t.Fatalf("error %s %q, want %s mentioning %q", code, msg, codeInvalidRequest, tc.wantErr)
				}
				return
			}
			id, _ := body["id"].(string)
			_, v := getJob(t, ts.URL, id, "?wait=30s")
			if v.Status != StatusCompleted {
				t.Fatalf("job status %q, error %q", v.Status, v.Error)
			}
			for i, sr := range v.Result.SubResults {
				if sr.Algorithm != "CG" {
					t.Fatalf("policy cg ignored: subresult %d solved with %s", i, sr.Algorithm)
				}
			}
		})
	}
}

// TestClusterLegacyFormDeprecated checks the cluster-session endpoint
// rejects retired top-level fields the same way — both option-carrying
// endpoints share the body decoder — and still installs from the
// wrapped and bare forms.
func TestClusterLegacyFormDeprecated(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, DefaultBudget: 300 * time.Millisecond})
	snap := testSnapshot(t, 6)
	for _, tc := range []struct {
		body       string
		wantStatus int
		wantErr    string
	}{
		{`{"snapshot": %s, "policy": "cg", "skipMigration": true}`, http.StatusBadRequest, `"policy" is no longer read: set options.policy.kind`},
		{`{"snapshot": %s, "deltaBudget": "50ms"}`, http.StatusBadRequest, `"deltaBudget" is no longer read: set options.deltaBudget`},
		{`{"snapshot": %s, "options": {"policy": {"kind": "cg"}, "deltaBudget": "50ms", "skipMigration": true}}`, http.StatusOK, ""},
		{`%s`, http.StatusOK, ""},
	} {
		resp, out := postRaw(t, ts.URL+"/v1/cluster", []byte(fmt.Sprintf(tc.body, snap)))
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%.60s: status %d, want %d: %v", tc.body, resp.StatusCode, tc.wantStatus, out)
		}
		if code, msg := errEnvelope(out); tc.wantErr != "" && (code != codeInvalidRequest || !strings.Contains(msg, tc.wantErr)) {
			t.Fatalf("%.60s: error %s %q, want %s mentioning %q", tc.body, code, msg, codeInvalidRequest, tc.wantErr)
		}
	}
}

// TestStrayKey checks the top-level key scan behind the wrapped-body
// check: keys nested inside values, strings holding quotes, colons,
// braces or escapes, and whitespace around the colon must not fool it.
func TestStrayKey(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"snapshot":{"a":{"strategy":1}},"options":{"budget":"1s"}}`, ""},
		{`{"snapshot":{},"options":null}`, ""},
		{`{"snapshot":[{"k":"v"},["\"",":","{"]]}`, ""},
		{`{"options":{},"snapshot":{"services":[{"name":"x\"y:"}]}, "seed" : 3}`, "seed"},
		{`{ "snapshot" : {} , "x\u0079" :1}`, "xy"},
		{`{"snapshot":"a\\","b":2}`, "b"},
		{"{\n\t\"snapshot\"\n:\n{},\r\n\"policy\"\t:\"cg\"}", "policy"},
		{`{"Snapshot":{}}`, "Snapshot"},
	} {
		if !json.Valid([]byte(tc.body)) {
			t.Fatalf("test body %s is not valid JSON", tc.body)
		}
		if got := strayKey([]byte(tc.body)); got != tc.want {
			t.Errorf("strayKey(%s) = %q, want %q", tc.body, got, tc.want)
		}
	}
}

// TestDecodeSnapshotRequestMovedKeys checks every retired top-level
// option field is rejected with its replacement named, and that a body
// without a "snapshot" key is still read as a bare snapshot.
func TestDecodeSnapshotRequestMovedKeys(t *testing.T) {
	for key, to := range movedKeys {
		_, _, err := decodeSnapshotRequest([]byte(fmt.Sprintf(`{"snapshot": {"version": 1}, %q: 1}`, key)))
		if err == nil || !strings.Contains(err.Error(), "set "+to) {
			t.Errorf("top-level %q: error %v, want one naming %s", key, err, to)
		}
	}
	snap, opts, err := decodeSnapshotRequest([]byte(`{"version": 1, "services": [{"name": "a", "replicas": 1, "request": [1]}]}`))
	if err != nil || snap == nil || len(snap.Services) != 1 || opts != nil {
		t.Fatalf("bare snapshot: snap %v opts %v err %v", snap, opts, err)
	}
	if _, _, err := decodeSnapshotRequest([]byte(`{"budget": "1s"}`)); err == nil || !strings.Contains(err.Error(), "missing snapshot") {
		t.Fatalf("body with neither snapshot nor snapshot fields: %v", err)
	}
}
