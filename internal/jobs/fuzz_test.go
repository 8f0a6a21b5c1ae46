package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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

// FuzzOpenQueue opens arbitrary bytes as a queue file. No input may
// panic or fail the open: it either loads (dropping a torn journal
// tail) or is quarantined with its bytes moved aside intact and the
// queue empty. Open, Close, reopen is a fixed point: the reopened queue
// lists the same jobs, and the clean reopen and its Close leave the
// single-line file byte for byte as the first Close wrote it.
func FuzzOpenQueue(f *testing.F) {
	if legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_queue.json")); err == nil {
		f.Add(legacy)
	}
	snap := `{"next_id":3,"jobs":[{"id":"j1","spec":{"experiment":"fig8","scale":"quick","seed":1},"hash":"h1","state":"succeeded","attempts":1},` +
		`{"id":"j2","spec":{"policy":"twolevel","faults":"storm"},"hash":"h2","state":"pending"}]}` + "\n"
	delta := `{"next_id":3,"jobs":[{"id":"j2","spec":{"policy":"twolevel","faults":"storm"},"hash":"h2","state":"running"}]}` + "\n"
	f.Add([]byte(snap))
	f.Add([]byte(snap + delta))
	f.Add([]byte(snap + delta[:40]))
	f.Add([]byte(`{"next_id":0,"jobs":[{"id":"j1","state":"running"},{"id":"j1","state":"failed"}]}`))
	f.Add([]byte(`{"jobs":[{"id":"j1","spec":{"faults":{ "name" : "x" }}}]} [] "tail"`))
	f.Add([]byte(""))
	f.Add([]byte("null"))
	f.Add([]byte("[]"))
	f.Add([]byte("{\"next_id\":"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "queue.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := OpenQueue(path)
		if err != nil {
			t.Fatalf("OpenQueue failed instead of loading or quarantining: %v", err)
		}
		if q.Quarantined != "" {
			moved, err := os.ReadFile(q.Quarantined)
			if err != nil || !bytes.Equal(moved, data) {
				t.Fatalf("quarantined file holds %q (%v), want the original %q", moved, err, data)
			}
			if n := len(q.List()); n != 0 {
				t.Fatalf("quarantined queue lists %d jobs", n)
			}
		}
		jobs := q.List()
		for _, j := range jobs {
			if j.State == Running {
				t.Fatalf("job %s still running after open", j.ID)
			}
		}
		list, err := json.Marshal(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
		closed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Count(closed, []byte{'\n'}) != 1 || closed[len(closed)-1] != '\n' {
			t.Fatalf("closed queue file is not one line: %q", closed)
		}

		re, err := OpenQueue(path)
		if err != nil || re.Quarantined != "" {
			t.Fatalf("reopening the closed queue: %v, quarantined %q", err, re.Quarantined)
		}
		relist, err := json.Marshal(re.List())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(relist, list) {
			t.Fatalf("reopened queue lists\n%s\nwant\n%s", relist, list)
		}
		if now, _ := os.ReadFile(path); !bytes.Equal(now, closed) {
			t.Fatalf("a clean open rewrote the file:\n%q\nwas\n%q", now, closed)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if again, _ := os.ReadFile(path); !bytes.Equal(again, closed) {
			t.Fatalf("second Close wrote\n%q\nfirst wrote\n%q", again, closed)
		}
	})
}
