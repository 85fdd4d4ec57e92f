package snapshot

import (
	"encoding/json"
	"strconv"
)

// plain is Snapshot without its UnmarshalJSON method, so encoding/json
// decodes it field by field through reflection.
type plain Snapshot

// UnmarshalJSON decodes a snapshot. The common case — the canonical
// form json.Marshal emits for a Snapshot, indented or not — is read in
// one pass without reflection. Anything outside that form (escaped or
// non-ASCII strings, null, an unknown, case-folded or repeated key, a
// number that is not a plain integer where an int is expected, a value
// of the wrong type, invalid JSON) and any decode into a non-empty
// snapshot goes to encoding/json instead, which gives its usual values
// and errors. Either way the result is the one encoding/json gives.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	if s.empty() {
		var d decoder
		if v, ok := d.whole(data); ok {
			*s = v
			return nil
		}
	}
	return json.Unmarshal(data, (*plain)(s))
}

func (s *Snapshot) empty() bool {
	return s.Version == 0 && s.ResourceNames == nil && s.Services == nil && s.Machines == nil &&
		s.Affinity == nil && s.AntiAffinity == nil && s.Assignment == nil
}

// decoder reads the canonical snapshot form. Every method reports
// ok=false on input outside that form, which abandons the fast path;
// it never produces an error of its own.
type decoder struct {
	b []byte
	i int
}

// whole decodes data, which must hold exactly one snapshot object and
// optional whitespace around it.
func (d *decoder) whole(data []byte) (Snapshot, bool) {
	d.b, d.i = data, 0
	s, ok := d.snapshot()
	d.ws()
	return s, ok && d.i == len(d.b)
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c, after optional whitespace, if it comes next.
func (d *decoder) eat(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object reads an object whose keys are all in keys, none repeated,
// calling field with the matching entry of keys to read each value.
func (d *decoder) object(keys []string, field func(key string) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	var seen uint
	for {
		raw, ok := d.str()
		if !ok || !d.eat(':') {
			return false
		}
		k := 0
		for k < len(keys) && string(raw) != keys[k] {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 || !field(keys[k]) {
			return false
		}
		seen |= 1 << k
		if !d.eat(',') {
			return d.eat('}')
		}
	}
}

// list reads an array, one elem call per entry. An empty array gives a
// non-nil empty slice, as encoding/json does.
func list[T any](d *decoder, elem func() (T, bool)) ([]T, bool) {
	if !d.eat('[') {
		return nil, false
	}
	out := []T{}
	if d.eat(']') {
		return out, true
	}
	for {
		v, ok := elem()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if !d.eat(',') {
			return out, d.eat(']')
		}
	}
}

// str reads a string of printable ASCII without escapes and returns its
// contents.
func (d *decoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	for start := d.i; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

func (d *decoder) text() (string, bool) {
	b, ok := d.str()
	return string(b), ok
}

// maxDigits is the longest digit run that always fits an int: 9
// digits for a 32-bit int, 18 for a 64-bit one.
const maxDigits = 9 * strconv.IntSize / 32

// int reads a JSON integer without fraction or exponent that fits an
// int with room to spare; longer ones are left to encoding/json.
func (d *decoder) int() (int, bool) {
	d.ws()
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	start, v := d.i, 0
	for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
		v = v*10 + int(d.b[d.i]-'0')
	}
	n := d.i - start
	if n == 0 || n > maxDigits || (n > 1 && d.b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// float reads a JSON number and parses it as encoding/json does.
func (d *decoder) float() (float64, bool) {
	d.ws()
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case !d.digits():
		return 0, false
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if !d.digits() {
			return 0, false
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	return v, err == nil
}

// digits consumes a non-empty run of decimal digits.
func (d *decoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

func (d *decoder) ints() ([]int, bool)       { return list(d, d.int) }
func (d *decoder) floats() ([]float64, bool) { return list(d, d.float) }

// The keys of each object, exactly as Snapshot's JSON tags spell them.
var (
	snapshotKeys  = []string{"version", "resourceNames", "services", "machines", "affinity", "antiAffinity", "assignment"}
	serviceKeys   = []string{"name", "replicas", "request", "machines"}
	machineKeys   = []string{"name", "capacity", "spec"}
	edgeKeys      = []string{"a", "b", "weight"}
	antiKeys      = []string{"services", "maxPerHost"}
	placementKeys = []string{"service", "machine", "count"}
)

func (d *decoder) snapshot() (s Snapshot, ok bool) {
	ok = d.object(snapshotKeys, func(key string) (ok bool) {
		switch key {
		case "version":
			s.Version, ok = d.int()
		case "resourceNames":
			s.ResourceNames, ok = list(d, d.text)
		case "services":
			s.Services, ok = list(d, d.service)
		case "machines":
			s.Machines, ok = list(d, d.machine)
		case "affinity":
			s.Affinity, ok = list(d, d.edge)
		case "antiAffinity":
			s.AntiAffinity, ok = list(d, d.anti)
		case "assignment":
			s.Assignment, ok = list(d, d.placement)
		}
		return ok
	})
	return s, ok
}

func (d *decoder) service() (v ServiceJSON, ok bool) {
	ok = d.object(serviceKeys, func(key string) (ok bool) {
		switch key {
		case "name":
			v.Name, ok = d.text()
		case "replicas":
			v.Replicas, ok = d.int()
		case "request":
			v.Request, ok = d.floats()
		case "machines":
			v.Machines, ok = d.ints()
		}
		return ok
	})
	return v, ok
}

func (d *decoder) machine() (v MachineJSON, ok bool) {
	ok = d.object(machineKeys, func(key string) (ok bool) {
		switch key {
		case "name":
			v.Name, ok = d.text()
		case "capacity":
			v.Capacity, ok = d.floats()
		case "spec":
			v.Spec, ok = d.int()
		}
		return ok
	})
	return v, ok
}

func (d *decoder) edge() (v EdgeJSON, ok bool) {
	ok = d.object(edgeKeys, func(key string) (ok bool) {
		switch key {
		case "a":
			v.A, ok = d.int()
		case "b":
			v.B, ok = d.int()
		case "weight":
			v.Weight, ok = d.float()
		}
		return ok
	})
	return v, ok
}

func (d *decoder) anti() (v AntiJSON, ok bool) {
	ok = d.object(antiKeys, func(key string) (ok bool) {
		switch key {
		case "services":
			v.Services, ok = d.ints()
		case "maxPerHost":
			v.MaxPerHost, ok = d.int()
		}
		return ok
	})
	return v, ok
}

func (d *decoder) placement() (v PlacementJSON, ok bool) {
	ok = d.object(placementKeys, func(key string) (ok bool) {
		switch key {
		case "service":
			v.Service, ok = d.int()
		case "machine":
			v.Machine, ok = d.int()
		case "count":
			v.Count, ok = d.int()
		}
		return ok
	})
	return v, ok
}
