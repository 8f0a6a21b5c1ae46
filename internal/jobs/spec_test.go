package jobs

import (
	"strings"
	"testing"
)

// mustHash parses, normalizes, and hashes a submission document.
func mustHash(t *testing.T, doc string) string {
	t.Helper()
	spec, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatalf("parse %s: %v", doc, err)
	}
	spec, err = spec.Normalize()
	if err != nil {
		t.Fatalf("normalize %s: %v", doc, err)
	}
	h, err := spec.Hash()
	if err != nil {
		t.Fatalf("hash %s: %v", doc, err)
	}
	return h
}

func TestHashIndependentOfFieldOrderAndHints(t *testing.T) {
	base := mustHash(t, `{"experiment":"fig8","scale":"quick","seed":1}`)
	same := []string{
		// Key order and whitespace don't matter.
		`{"seed":1,  "scale":"quick","experiment":"fig8"}`,
		// Defaults normalize: quick's default seed is 1.
		`{"experiment":"fig8","scale":"quick"}`,
		// Execution hints are excluded from the address.
		`{"experiment":"fig8","scale":"quick","parallel":8,"timeout_sec":60}`,
	}
	for _, doc := range same {
		if h := mustHash(t, doc); h != base {
			t.Errorf("hash of %s = %s, want %s", doc, h, base)
		}
	}
}

func TestHashFaultPlanCanonicalization(t *testing.T) {
	a := mustHash(t, `{"scale":"quick","faults":{
		"name":"demo","events":[{"kind":"slow","at":"20ms","until":"50ms","node":1,"speed":0.5}]}}`)
	// Same plan, different key order and formatting.
	b := mustHash(t, `{"faults":{"events":[{"speed":0.5,"node":1,"until":"50ms","at":"20000us","kind":"slow"}],"name":"demo"},"scale":"quick"}`)
	if a != b {
		t.Errorf("equivalent fault plans hashed differently: %s vs %s", a, b)
	}
}

func TestHashDifferentialNoCollisions(t *testing.T) {
	// Every result-affecting field perturbation must move the address.
	docs := []string{
		`{"experiment":"fig8","scale":"quick"}`,
		`{"experiment":"fig8","scale":"default"}`,
		`{"experiment":"fig8","scale":"quick","seed":2}`,
		`{"experiment":"fig9","scale":"quick"}`,
		`{"policy":"guided","scale":"quick"}`,
		`{"policy":"twolevel","scale":"quick"}`,
		`{"policy":"guided","scale":"quick","faults":"slownode"}`,
		`{"faults":"slownode","scale":"quick"}`,
		`{"faults":{"name":"x","events":[{"kind":"drain","at":"1ms","node":1}]},"scale":"quick"}`,
		`{"faults":{"name":"x","events":[{"kind":"drain","at":"1ms","node":2}]},"scale":"quick"}`,
		`{"faults":{"name":"x","events":[{"kind":"drain","at":"2ms","node":1}]},"scale":"quick"}`,
	}
	seen := map[string]string{}
	for _, doc := range docs {
		h := mustHash(t, doc)
		if prev, ok := seen[h]; ok {
			t.Errorf("collision: %s and %s share hash %s", prev, doc, h)
		}
		seen[h] = doc
	}
}

func TestParseSpecActionableErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want []string
	}{
		{"unknown field", `{"experimnt":"fig8"}`, []string{`unknown field "experimnt"`, "valid fields"}},
		// The engine hints are gone: the sequential engine is the only one.
		{"engine hint removed", `{"experiment":"fig8","engine":"continuation"}`,
			[]string{`unknown field "engine"`, "valid fields: experiment, scale, seed, policy, faults, parallel, timeout_sec)"}},
		{"simworkers hint removed", `{"experiment":"fig8","simworkers":2}`,
			[]string{`unknown field "simworkers"`, "valid fields: experiment, scale, seed, policy, faults, parallel, timeout_sec)"}},
		{"type error names field", `{"seed":"one"}`, []string{`field "seed"`, "int64"}},
		{"trailing garbage", `{"experiment":"fig8"} junk`, []string{"trailing data"}},
	}
	for _, tc := range cases {
		_, err := ParseSpec([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q missing %q", tc.name, err, w)
			}
		}
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"no run selected", `{"scale":"quick"}`, "selects no run"},
		{"unknown experiment", `{"experiment":"fig99"}`, "unknown experiment"},
		{"unknown scale", `{"experiment":"fig8","scale":"huge"}`, "unknown scale"},
		{"unknown policy", `{"policy":"roundrobin"}`, "unknown policy"},
		{"experiment+policy", `{"experiment":"fig8","policy":"guided"}`, "mutually exclusive"},
		{"experiment+faults", `{"experiment":"fig8","faults":"slownode"}`, "mutually exclusive"},
		{"unknown preset", `{"faults":"meteorstorm"}`, "unknown faults preset"},
		{"bad plan event indexed", `{"faults":{"events":[{"kind":"slow","at":"1ms","until":"2ms","speed":0.5},{"kind":"coreloss","at":"1ms","cores":"two"}]}}`, "event 1"},
		{"plan invalid for demo machine", `{"faults":{"events":[{"kind":"crash","at":"1ms","node":9}]}}`, "out of range"},
	}
	for _, tc := range cases {
		spec, err := ParseSpec([]byte(tc.doc))
		if err == nil {
			_, err = spec.Normalize()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

func TestNormalizeFillsDefaults(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"experiment":"fig8"}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err = spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Scale != "default" || spec.Seed != 1 {
		t.Fatalf("defaults not filled: %+v", spec)
	}
}
