package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/cloudsched/rasa/internal/workload"
)

// decodeCase is one input for the decoder tests. fast says whether the
// one-pass decoder reads it itself rather than handing it to
// encoding/json.
type decodeCase struct {
	name string
	data string
	fast bool
}

// smallM is the M presets' shape (two zones, so zone-restricted
// services) at a size the fuzzer can mutate quickly.
var smallM = workload.Preset{Name: "M-small", Services: 10, Containers: 30, Machines: 4,
	Beta: 1.6, AffinityFraction: 0.55, Zones: 2, Utilization: 0.55, Seed: 101}

// decodeCases returns the canonical form of a snapshot generated from
// the preset, compact and indented, and inputs just outside the
// canonical subset: each must decode exactly as encoding/json decodes
// it.
func decodeCases(tb testing.TB, preset workload.Preset) []decodeCase {
	tb.Helper()
	c, err := workload.Generate(preset)
	if err != nil {
		tb.Fatal(err)
	}
	gen := FromCluster(c.Problem, c.Original)
	compact, err := json.Marshal(gen)
	if err != nil {
		tb.Fatal(err)
	}
	if !bytes.Contains(compact, []byte(`"machines":[0`)) {
		tb.Fatalf("%s snapshot has no zone-restricted service", preset.Name)
	}
	var indented bytes.Buffer
	if err := Write(&indented, gen); err != nil {
		tb.Fatal(err)
	}
	small := minimal()
	small.AntiAffinity = []AntiJSON{{Services: []int{0, 1}, MaxPerHost: 1}}
	small.Services[0].Machines = []int{0, 1}
	small.Machines[1].Spec = 2
	minJSON, err := json.Marshal(small)
	if err != nil {
		tb.Fatal(err)
	}
	// with replaces the first occurrence of old in the minimal snapshot.
	with := func(old, new string) string {
		if !strings.Contains(string(minJSON), old) {
			tb.Fatalf("minimal snapshot has no %q", old)
		}
		return strings.Replace(string(minJSON), old, new, 1)
	}
	const svc = `{"name":"web","replicas":2,"request":[1,2],"machines":[0,1]}`
	return []decodeCase{
		{preset.Name + " compact", string(compact), true},
		{preset.Name + " indented", indented.String(), true},
		{"minimal", string(minJSON), true},
		{"whitespace", " \n\t" + with(`"version":1,`, `"version" : 1 ,`) + "\r\n", true},
		{"empty object", `{}`, true},
		{"empty lists", with(`"machines":[0,1]`, `"machines":[]`), true},
		{"negative zero", with(`"spec":2`, `"spec":-0`), true},
		{"float forms", with(`"capacity":[8,16]`, `"capacity":[1e2,0.5E-1,-0,1.5e+300]`), true},
		{"largest fast int", with(`"replicas":2`, `"replicas":999999999999999999`), true},
		{"upper-case key", with(`"version"`, `"Version"`), false},
		{"upper-case nested key", with(`"replicas"`, `"Replicas"`), false},
		{"escaped name", with(`"name":"web"`, `"name":"w\u0065b"`), false},
		{"escaped quote", with(`"name":"web"`, `"name":"w\"eb"`), false},
		{"non-ASCII name", with(`"name":"web"`, `"name":"wéb"`), false},
		{"invalid UTF-8 name", with(`"name":"web"`, "\"name\":\"w\xffb\""), false},
		{"escaped key", with(`"version"`, `"v\u0065rsion"`), false},
		{"null list", with(`"machines":[0,1]`, `"machines":null`), false},
		{"null name", with(`"name":"web"`, `"name":null`), false},
		{"null snapshot", `null`, false},
		{"unknown key", with(`"version":1,`, `"version":1,"extra":{"a":[1]},`), false},
		{"unknown nested key", with(`"replicas":2,`, `"replicas":2,"zone":"a",`), false},
		{"duplicate key", with(`"version":1,`, `"version":2,"version":1,`), false},
		{"duplicate services", with(`"services":[`, `"services":[`+svc+`,`+svc+`],"services":[`), false},
		{"duplicate nested key", with(`"replicas":2,`, `"replicas":3,"replicas":2,`), false},
		{"fractional int", with(`"replicas":2`, `"replicas":1.5`), false},
		{"exponent int", with(`"replicas":2`, `"replicas":1e2`), false},
		{"max int64", with(`"count":2`, `"count":9223372036854775807`), false},
		{"min int64", with(`"spec":2`, `"spec":-9223372036854775808`), false},
		{"int overflow", with(`"count":2`, `"count":9223372036854775808`), false},
		{"huge int", with(`"replicas":2`, `"replicas":99999999999999999999999`), false},
		{"leading zero", with(`"replicas":2`, `"replicas":02`), false},
		{"float overflow", with(`"weight":1`, `"weight":1e400`), false},
		{"string for int", with(`"replicas":2`, `"replicas":"2"`), false},
		{"bool for list", with(`"request":[1,2]`, `"request":true`), false},
		{"object for list", with(`"affinity":[`, `"affinity":{},"x":[`), false},
		{"trailing comma", with(`"machines":[0,1]`, `"machines":[0,1,]`), false},
		{"trailing garbage", string(minJSON) + ` x`, false},
		{"two snapshots", string(minJSON) + string(minJSON), false},
		{"truncated", string(minJSON[:len(minJSON)/2]), false},
		{"array", `[]`, false},
		{"string", `""`, false},
		{"empty", ``, false},
	}
}

// TestFastPathCoversCanonical: the one-pass decoder reads the canonical
// form itself, compact or indented, and gives every other input to
// encoding/json.
func TestFastPathCoversCanonical(t *testing.T) {
	for _, tc := range decodeCases(t, workload.M1) {
		var d decoder
		if _, ok := d.whole([]byte(tc.data)); ok != tc.fast {
			t.Errorf("%s: fast path took it = %v, want %v", tc.name, ok, tc.fast)
		}
	}
}

// checkDecode fails unless UnmarshalJSON and Read decode data exactly as
// encoding/json decodes it into the method-free type: same value, and
// an error exactly when encoding/json gives one (the same error, for
// UnmarshalJSON).
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var want plain
	wantErr := json.Unmarshal(data, &want)
	var got Snapshot
	gotErr := got.UnmarshalJSON(data)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("UnmarshalJSON error %v, encoding/json %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, Snapshot(want)) {
		t.Fatalf("UnmarshalJSON decoded %+v, encoding/json %+v", got, want)
	}
	read, readErr := Read(bytes.NewReader(data))
	if (readErr == nil) != (wantErr == nil) {
		t.Fatalf("Read error %v, encoding/json %v", readErr, wantErr)
	}
	if readErr == nil && !reflect.DeepEqual(*read, Snapshot(want)) {
		t.Fatalf("Read decoded %+v, encoding/json %+v", *read, want)
	}
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, tc := range decodeCases(t, workload.M1) {
		t.Run(tc.name, func(t *testing.T) { checkDecode(t, []byte(tc.data)) })
	}
}

// TestDecodeIntoFilledSnapshot: decoding into a snapshot that already
// holds values keeps encoding/json's merge semantics.
func TestDecodeIntoFilledSnapshot(t *testing.T) {
	data := []byte(`{"version":1,"services":[{"name":"db"}]}`)
	got, want := minimal(), minimal()
	if err := got.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, (*plain)(&want)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, encoding/json %+v", got, want)
	}
}

// FuzzSnapshotDecode: any input decodes through UnmarshalJSON and Read
// exactly as encoding/json decodes it without the fast path.
func FuzzSnapshotDecode(f *testing.F) {
	for _, tc := range decodeCases(f, smallM) {
		f.Add([]byte(tc.data))
	}
	f.Fuzz(checkDecode)
}

// TestReadTrailingData: a snapshot file holds one snapshot. Whitespace
// after it is fine; anything else is an error that says so, on the
// one-pass path and on the encoding/json one.
func TestReadTrailingData(t *testing.T) {
	canonical, err := json.Marshal(minimal())
	if err != nil {
		t.Fatal(err)
	}
	// Upper-case keys take the encoding/json path.
	folded := strings.Replace(string(canonical), `"version"`, `"Version"`, 1)
	for _, body := range []string{string(canonical), folded} {
		for _, tc := range []struct {
			name, tail string
			ok         bool
		}{
			{"newline", "\n", true},
			{"whitespace", " \t\r\n ", true},
			{"garbage", " trailing-garbage", false},
			{"second snapshot", string(canonical), false},
			{"closing brace", "}", false},
		} {
			_, _, err := Load(strings.NewReader(body + tc.tail))
			if tc.ok && err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), "trailing data")) {
				t.Errorf("%s: error %v, want a trailing-data error", tc.name, err)
			}
		}
	}
	// The size cap still applies: trailing data past it reads as too
	// large, not as trailing data.
	_, _, err = LoadLimited(strings.NewReader(string(canonical)+strings.Repeat(" x", 64)), int64(len(canonical)+8))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-limit error = %v, want size-limit error", err)
	}
}
