package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/cloudsched/rasa/internal/snapshot"
)

// decodeSnapshotRequestRef is decodeSnapshotRequest as it read before
// decodeCommon: encoding/json over the whole body, then over it again
// for a bare snapshot. It is the reference the fast path must match.
func decodeSnapshotRequestRef(raw []byte) (*snapshot.Snapshot, *optionsJSON, error) {
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

// checkDecodeMatchesRef requires decodeSnapshotRequest to give the
// reference's snapshot, options and error text on body.
func checkDecodeMatchesRef(t *testing.T, body []byte) {
	t.Helper()
	snap, o, err := decodeSnapshotRequest(body)
	rsnap, ro, rerr := decodeSnapshotRequestRef(body)
	if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
		t.Fatalf("body %.200q: error %v, reference %v", body, err, rerr)
	}
	if !reflect.DeepEqual(snap, rsnap) || !reflect.DeepEqual(o, ro) {
		t.Fatalf("body %.200q: decoded %+v / %+v, reference %+v / %+v", body, snap, o, rsnap, ro)
	}
}

// decodeBodies builds request bodies around the canonical snapshot s
// (indented is s indented): fast lists the forms decodeCommon must take
// itself, slow those it leaves to encoding/json.
func decodeBodies(s, indented string) (fast, slow []string) {
	fast = []string{
		`{"snapshot":` + s + `}`,
		`{"snapshot":` + s + `,"options":{"budget":"1s","seed":7}}`,
		` { "options" : {"policy":{"kind":"cg"}} ,` + "\n\t" + `"snapshot" : ` + indented + " } \n",
		`{"snapshot":` + s + `,"options":null}`,
		`{"snapshot":` + s + `,"options":{"unknown":1,"budget":"2s"}}`,
		s,
		indented + "\n",
	}
	slow = []string{
		``, ` `, `null`, `[]`, `"x"`, `{}`, `{ }`, `{"snapshot":null}`,
		`{"snapshot":null,"options":{}}`,
		`{"snapshot":{}}`, `{"snapshot":{"version":1}}`, `{"snapshot":[]}`, `{"snapshot":1}`,
		`{"snapshot":` + s + `,"seed":3}`,
		`{"snapshot":` + s + `,"strategy":"kway","options":{}}`,
		`{"snapshot":` + s + `,"snapshot":` + s + `}`,
		`{"snapshot":` + s + `,"options":{},"options":{}}`,
		`{"Snapshot":` + s + `}`,
		`{"SNAPSHOT":` + s + `,"options":{}}`,
		`{"snapshot":` + s + `,"Options":{"budget":"1s"}}`,
		`{"snapshot":` + s + `}`,
		`{"snapshot":` + s + `,"options":{"budget":1}}`,
		`{"snapshot":` + s + `,"options":[]}`,
		`{"snapshot":` + s + `,"options":{"seed":"x"}}`,
		`{"snapshot":` + s + `} x`,
		`{"snapshot":` + s + `}}`,
		`{"snapshot":` + s + `,}`,
		`{"snapshot":` + s,
		`{"snapshot" ` + s + `}`,
		`{"snapshot":` + s[:len(s)/2] + `}`,
		`{"snapshot":{"version":1,"services":[{"name":"a","replicas":1,"request":[1]}]},"options":{"budget":"1s"}}`,
		`{"version":1,"services":[{"name":"a","replicas":1,"request":[1]}]}`,
		`{"version":1,"services":[{"name":"a","replicas":1,"request":[1]}],"options":{"budget":"1s"}}`,
		`{"version":0,"services":[]}`,
		`{"budget":"1s"}`,
		s + ` x`,
		s[:len(s)-1],
	}
	return fast, slow
}

// TestDecodeSnapshotRequestMatchesRef runs wrapped and bare bodies, the
// forms the fast path takes and those it leaves to encoding/json,
// through decodeSnapshotRequest and the reference, then random byte
// edits of a small wrapped body.
func TestDecodeSnapshotRequestMatchesRef(t *testing.T) {
	snap := testSnapshot(t, 3)
	var indented bytes.Buffer
	if err := json.Indent(&indented, snap, "", "  "); err != nil {
		t.Fatal(err)
	}
	fast, slow := decodeBodies(string(snap), indented.String())
	for _, body := range fast {
		if _, _, ok := decodeCommon([]byte(body)); !ok {
			t.Errorf("fast path declined %.120q", body)
		}
		checkDecodeMatchesRef(t, []byte(body))
	}
	for _, body := range slow {
		checkDecodeMatchesRef(t, []byte(body))
	}

	// Random edits of a small wrapped body: deleted, duplicated and
	// replaced bytes, most of them breaking the JSON somewhere.
	base := []byte(`{"snapshot":{"version":1,"resourceNames":["cpu"],"services":[{"name":"a\"b","replicas":2,"request":[1.5]}],` +
		`"machines":[{"name":"m","capacity":[4]}],"assignment":[{"service":0,"machine":0,"count":2}]},"options":{"budget":"1s","seed":4}}`)
	rng := rand.New(rand.NewSource(8))
	alphabet := []byte(`{}[]",:\ 019ae-.ntu`)
	for trial := 0; trial < 3000; trial++ {
		body := append([]byte(nil), base...)
		for edits := 1 + rng.Intn(3); edits > 0; edits-- {
			k := rng.Intn(len(body))
			switch rng.Intn(3) {
			case 0:
				body = append(body[:k], body[k+1:]...)
			case 1:
				body = append(body[:k+1], body[k:]...)
			default:
				body[k] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		checkDecodeMatchesRef(t, body)
	}
}

// FuzzDecodeSnapshotRequest holds decodeSnapshotRequest, whose
// decodeCommon fast path splits the envelope itself, to the
// encoding/json reference on arbitrary bytes: the same snapshot,
// options and error text. The seeds are the table test's bodies around
// a one-service snapshot, kept small so the engine mutates them fast.
func FuzzDecodeSnapshotRequest(f *testing.F) {
	const small = `{"version":1,"resourceNames":["cpu"],"services":[{"name":"a","replicas":2,"request":[1.5]}],` +
		`"machines":[{"name":"m","capacity":[4]}],"assignment":[{"service":0,"machine":0,"count":2}]}`
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(small), "", " "); err != nil {
		f.Fatal(err)
	}
	fast, slow := decodeBodies(small, indented.String())
	for _, body := range fast {
		if _, _, ok := decodeCommon([]byte(body)); !ok {
			f.Fatalf("fast path declined seed %q", body)
		}
		f.Add([]byte(body))
	}
	for _, body := range slow {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"snapshot":{"version":1,"resourceNames":["cpu"],"services":[{"name":"a\"b","replicas":2,"request":[1.5]}]},"options":{"seed":4}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesRef(t, body)
	})
}
