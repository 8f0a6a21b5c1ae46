package jobs

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"ompsscluster/internal/faults"
)

// FuzzParseSpec drives submission documents through the whole spec
// pipeline. No input may panic; for every accepted spec the canonical
// document is itself an accepted spec with the same canonical bytes and
// hash (parse(canon(s)) is a fixed point); and reordering the keys of
// every JSON object leaves the hash unchanged.
func FuzzParseSpec(f *testing.F) {
	// The service benchmark's job kinds, every fault preset, and the
	// execution hints.
	for _, kind := range [][2]string{
		{"experiment", "fig8"}, {"experiment", "fig9"}, {"experiment", "fig10"},
		{"experiment", "fig11"}, {"experiment", "policies"}, {"experiment", "efficiency"},
		{"experiment", "resilience"}, {"experiment", "ext-dynamic"},
		{"policy", "wfactoring"}, {"policy", "twolevel"},
	} {
		f.Add(`{"` + kind[0] + `":"` + kind[1] + `","scale":"quick","seed":7,"parallel":1}`)
	}
	for _, name := range faults.PresetNames() {
		f.Add(`{"faults":"` + name + `","scale":"quick"}`)
		f.Add(`{"policy":"guided","faults":"` + name + `"}`)
	}
	f.Add(`{"scale":"quick","faults":{"name":"demo","seed":3,"max_attempts":2,"backoff":"1ms",` +
		`"events":[{"kind":"slow","at":"20ms","until":"50ms","node":1,"speed":0.5},` +
		`{"kind":"link","at":"1ms","until":"9ms","node":0,"node_b":2,"delay":"10us","jitter":"5us","drop":0.1}]}}`)
	f.Add(`{"experiment":"fig8","faults":null,"timeout_sec":30}`)
	f.Add(`{"experiment":"fig8","engine":"continuation"}`)
	f.Add(`{"seed":"one"}`)
	f.Add(`[]`)

	f.Fuzz(func(t *testing.T, doc string) {
		spec, err := ParseSpec([]byte(doc))
		if err != nil {
			return
		}
		norm, err := spec.Normalize()
		if err != nil {
			return
		}
		canon, err := norm.Canonical()
		if err != nil {
			t.Fatalf("Canonical of accepted spec %s: %v", doc, err)
		}
		hash, err := norm.Hash()
		if err != nil {
			t.Fatalf("Hash of accepted spec %s: %v", doc, err)
		}

		again, err := ParseSpec(canon)
		if err == nil {
			again, err = again.Normalize()
		}
		if err != nil {
			t.Fatalf("canonical document %s of %s is not an accepted spec: %v", canon, doc, err)
		}
		canon2, err := again.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical form is not a fixed point:\n%s\n%s", canon, canon2)
		}
		if hash2, _ := again.Hash(); hash2 != hash {
			t.Fatalf("re-parsed canonical document hashes to %s, want %s", hash2, hash)
		}

		reordered, ok := reverseKeys([]byte(doc))
		if !ok {
			return
		}
		rspec, err := ParseSpec(reordered)
		if err == nil {
			rspec, err = rspec.Normalize()
		}
		if err != nil {
			t.Fatalf("reordered %s (from %s) rejected: %v", reordered, doc, err)
		}
		if rhash, _ := rspec.Hash(); rhash != hash {
			t.Fatalf("reordered %s hashes to %s, want %s (from %s)", reordered, rhash, hash, doc)
		}
	})
}

// reverseKeys re-encodes a JSON document with every object's keys in
// reverse sorted order, values untouched. ok is false for documents
// whose key order carries meaning: an object naming one key twice
// (case-insensitively, as encoding/json matches fields) resolves to the
// last occurrence, so reordering it may legitimately change the spec.
func reverseKeys(doc []byte) (out []byte, ok bool) {
	doc = bytes.TrimSpace(doc)
	if len(doc) == 0 {
		return doc, true
	}
	switch doc[0] {
	case '{':
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(doc, &obj); err != nil {
			return nil, false
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			for _, prev := range keys {
				if strings.EqualFold(k, prev) {
					return nil, false
				}
			}
			keys = append(keys, k)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(keys)))
		var b bytes.Buffer
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			name, _ := json.Marshal(k)
			b.Write(name)
			b.WriteByte(':')
			v, ok := reverseKeys(obj[k])
			if !ok {
				return nil, false
			}
			b.Write(v)
		}
		b.WriteByte('}')
		return b.Bytes(), true
	case '[':
		var arr []json.RawMessage
		if err := json.Unmarshal(doc, &arr); err != nil {
			return nil, false
		}
		var b bytes.Buffer
		b.WriteByte('[')
		for i, v := range arr {
			if i > 0 {
				b.WriteByte(',')
			}
			rv, ok := reverseKeys(v)
			if !ok {
				return nil, false
			}
			b.Write(rv)
		}
		b.WriteByte(']')
		return b.Bytes(), true
	}
	return doc, true
}
