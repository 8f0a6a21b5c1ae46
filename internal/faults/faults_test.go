package faults

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"ompsscluster/internal/simtime"
)

func TestParseRoundTrip(t *testing.T) {
	data := []byte(`{
		"name": "demo",
		"max_attempts": 8,
		"backoff": "2ms",
		"events": [
			{"kind": "slow", "at": "20ms", "until": "50ms", "node": 1, "speed": 0.5},
			{"kind": "link", "at": "5ms", "until": "80ms", "node": 0, "node_b": 2,
			 "delay": "100us", "jitter": "250us", "drop": 0.1},
			{"kind": "coreloss", "at": "30ms", "node": 2, "cores": 2},
			{"kind": "drain", "at": "40ms", "node": 3},
			{"kind": "stall", "at": "10ms", "until": "12ms", "apprank": 1}
		]
	}`)
	p, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "demo" || p.MaxAttempts != 8 || p.Backoff != simtime.Duration(2*time.Millisecond) {
		t.Fatalf("header mismatch: %+v", p)
	}
	if len(p.Events) != 5 {
		t.Fatalf("want 5 events, got %d", len(p.Events))
	}
	if err := p.Validate(4, 4); err != nil {
		t.Fatal(err)
	}
	if p.Events[0].Kind != Slow || p.Events[0].Speed != 0.5 {
		t.Fatalf("slow event mismatch: %+v", p.Events[0])
	}
	if p.Events[1].Delay != simtime.Duration(100*time.Microsecond) {
		t.Fatalf("link delay mismatch: %+v", p.Events[1])
	}
}

func TestParseErrorsNameEventAndField(t *testing.T) {
	cases := []struct {
		name string
		data string
		want []string
	}{
		{"event type error carries index and field",
			`{"events": [{"kind": "slow", "at": "1ms", "until": "2ms", "speed": 0.5},
			             {"kind": "coreloss", "at": "3ms", "cores": "two"}]}`,
			[]string{"event 1", `field "cores"`, "JSON string", "int"}},
		{"event unknown field rejected with index",
			`{"events": [{"kind": "drain", "at": "1ms", "nodeb": 2}]}`,
			[]string{"event 0", `unknown field "nodeb"`, `"node_b"`}},
		{"event bad duration carries index and field",
			`{"events": [{"kind": "slow", "at": "1ms", "until": "2 parsecs", "speed": 0.5}]}`,
			[]string{"event 0", "until", "2 parsecs"}},
		{"top-level type error names the field",
			`{"max_attempts": "eight", "events": []}`,
			[]string{"parse plan", `field "max_attempts"`, "int"}},
		{"top-level unknown field rejected",
			`{"naem": "typo", "events": []}`,
			[]string{"parse plan", `unknown field "naem"`, `"events"`}},
		{"non-object document",
			`[1, 2, 3]`,
			[]string{"parse plan", "(document)"}},
		{"trailing garbage",
			`{"events": []} extra`,
			[]string{"parse plan", "trailing data"}},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.data))
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

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"unknown kind", Event{Kind: "meteor", At: 1}, "unknown kind"},
		{"episodic without until", Event{Kind: Slow, At: 5, Node: 0, Speed: 0.5}, "Until"},
		{"permanent with until", Event{Kind: CoreLoss, At: 5, Until: 9, Node: 0, Cores: 1}, "Until"},
		{"node out of range", Event{Kind: Crash, At: 1, Node: 9}, "out of range"},
		{"bad speed", Event{Kind: Slow, At: 1, Until: 2, Node: 0, Speed: 1.5}, "Speed"},
		{"zero cores", Event{Kind: CoreLoss, At: 1, Node: 0}, "Cores"},
		{"self link", Event{Kind: Link, At: 1, Until: 2, Node: 1, NodeB: 1}, "peer"},
		{"drop too high", Event{Kind: Link, At: 1, Until: 2, Node: 0, NodeB: 1, Drop: 1.0}, "Drop"},
		{"apprank out of range", Event{Kind: Stall, At: 1, Until: 2, Apprank: 7}, "apprank"},
	}
	for _, tc := range cases {
		p := &Plan{Events: []Event{tc.ev}}
		err := p.Validate(4, 4)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

func TestBindSortsAndSeeds(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: Drain, At: 30, Node: 1},
		{Kind: CoreLoss, At: 10, Node: 0, Cores: 1},
	}}
	b := p.Bind(42)
	if b.Seed != 42 || b.MaxAttempts != 16 || b.Backoff != simtime.Duration(time.Millisecond) {
		t.Fatalf("defaults not filled: %+v", b)
	}
	if b.Events[0].Kind != CoreLoss || b.Events[1].Kind != Drain {
		t.Fatalf("events not sorted by At: %+v", b.Events)
	}
	if p.Events[0].Kind != Drain {
		t.Fatal("Bind mutated the receiver")
	}
	pinned := &Plan{Seed: 7, PinSeed: true}
	if pinned.Bind(42).Seed != 7 {
		t.Fatal("PinSeed not honoured")
	}
}

func TestLinksConditionDeterministic(t *testing.T) {
	p := (&Plan{Events: []Event{
		{Kind: Link, At: 0, Until: 1000, Node: 0, NodeB: 1,
			Delay: 10, Jitter: 100, Drop: 0.3},
	}}).Bind(99)
	l := NewLinks(p)
	if l == nil {
		t.Fatal("NewLinks returned nil for a plan with a link episode")
	}
	drops := 0
	for seq := uint64(0); seq < 2000; seq++ {
		d1, drop1 := l.Condition(500, 0, 1, seq, 0)
		d2, drop2 := l.Condition(500, 1, 0, seq, 0)
		if d1 != d2 || drop1 != drop2 {
			t.Fatalf("seq %d: direction-dependent conditioning", seq)
		}
		if d1 < 10 || d1 > 110 {
			t.Fatalf("seq %d: delay %d outside [10,110]", seq, d1)
		}
		if drop1 {
			drops++
		}
	}
	// ~30% drop rate; loose bounds to stay robust to the hash.
	if drops < 400 || drops > 800 {
		t.Fatalf("drop rate off: %d/2000", drops)
	}
	// Outside the episode window: untouched.
	if d, drop := l.Condition(2000, 0, 1, 1, 0); d != 0 || drop {
		t.Fatal("conditioning applied outside episode window")
	}
	// Unrelated link pair: untouched.
	if d, drop := l.Condition(500, 0, 2, 1, 0); d != 0 || drop {
		t.Fatal("conditioning applied to unrelated link")
	}
}

func TestLinksNilForPlanWithoutLinks(t *testing.T) {
	p := (&Plan{Events: []Event{{Kind: Drain, At: 5, Node: 0}}}).Bind(1)
	if NewLinks(p) != nil {
		t.Fatal("want nil Links for a plan without link episodes")
	}
}

func TestBackoffDelay(t *testing.T) {
	l := &Links{backoff: 4}
	if got := l.BackoffDelay(1); got != 4 {
		t.Fatalf("attempt 1: got %d", got)
	}
	if got := l.BackoffDelay(3); got != 16 {
		t.Fatalf("attempt 3: got %d", got)
	}
	if got := l.BackoffDelay(40); got != 4<<16 {
		t.Fatalf("cap: got %d", got)
	}
}

func TestArmSchedulesBothEdges(t *testing.T) {
	env := simtime.NewEnv()
	p := (&Plan{Events: []Event{
		{Kind: Slow, At: 10, Until: 20, Node: 0, Speed: 0.5},
		{Kind: Drain, At: 15, Node: 1},
	}}).Bind(1)
	type edge struct {
		k  Kind
		ph Phase
		at simtime.Time
	}
	var got []edge
	Arm(env, p, func(_ int, ev Event, ph Phase) {
		got = append(got, edge{ev.Kind, ph, env.Now()})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []edge{{Slow, Inject, 10}, {Drain, Inject, 15}, {Slow, Recover, 20}}
	if len(got) != len(want) {
		t.Fatalf("want %v, got %v", want, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: want %v, got %v", i, want[i], got[i])
		}
	}
}

func TestPresetsValid(t *testing.T) {
	for _, name := range PresetNames() {
		p, ok := Preset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if err := p.Validate(4, 8); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	if _, ok := Preset("nope"); ok {
		t.Fatal("unknown preset resolved")
	}
}

func TestLoadRejectsUnknown(t *testing.T) {
	if _, err := Load("no-such-plan"); err == nil {
		t.Fatal("want error for unknown plan name")
	}
	if p, err := Load("slownode"); err != nil || p.Name != "slownode" {
		t.Fatalf("preset load failed: %v %v", p, err)
	}
}

// FuzzParsePlan feeds arbitrary documents to Parse: it must return an
// error rather than panic, and every plan it accepts must pass Validate
// on a machine just large enough for the node and apprank ids it names.
func FuzzParsePlan(f *testing.F) {
	for _, name := range PresetNames() {
		p, _ := Preset(name)
		doc := encodePlan(p)
		if got, err := Parse(doc); err != nil || !reflect.DeepEqual(got, p) {
			f.Fatalf("preset %q does not parse back from %s: %+v, %v", name, doc, got, err)
		}
		f.Add(string(doc))
	}
	f.Add(`{"name":"demo","seed":3,"max_attempts":2,"backoff":"1ms","events":[` +
		`{"kind":"stall","at":"10ms","until":"12ms","apprank":1}]}`)
	f.Add(`{"events":[{"kind":"slow","at":"-1ms","until":"2ms","node":0,"speed":0.5}]}`)
	f.Add(`{"events":[{"kind":"link","at":"1ms","until":"2ms","node":0,"node_b":-3}]}`)
	f.Add(`{"events":[{"kind":"meteor"}]}`)
	f.Add(`{"max_attempts":-1}`)
	f.Add(`{"backoff":"-5s","events":null}`)
	f.Add(`[]`)

	f.Fuzz(func(t *testing.T, doc string) {
		p, err := Parse([]byte(doc))
		if err != nil {
			return
		}
		nodes, appranks := 1, 1
		for _, ev := range p.Events {
			nodes = max(nodes, ev.Node+1, ev.NodeB+1)
			appranks = max(appranks, ev.Apprank+1)
		}
		if err := p.Validate(nodes, appranks); err != nil {
			t.Fatalf("Parse accepted %s but Validate(%d, %d) rejects it: %v", doc, nodes, appranks, err)
		}
	})
}

// encodePlan writes a plan in the JSON form Parse reads, durations as Go
// duration strings in nanoseconds.
func encodePlan(p *Plan) []byte {
	dur := func(d simtime.Duration) string {
		if d == 0 {
			return ""
		}
		return time.Duration(d).String()
	}
	type event struct {
		Kind    string  `json:"kind"`
		At      string  `json:"at,omitempty"`
		Until   string  `json:"until,omitempty"`
		Node    int     `json:"node,omitempty"`
		NodeB   int     `json:"node_b,omitempty"`
		Apprank int     `json:"apprank,omitempty"`
		Speed   float64 `json:"speed,omitempty"`
		Cores   int     `json:"cores,omitempty"`
		Delay   string  `json:"delay,omitempty"`
		Jitter  string  `json:"jitter,omitempty"`
		Drop    float64 `json:"drop,omitempty"`
	}
	doc := struct {
		Name   string  `json:"name"`
		Events []event `json:"events"`
	}{Name: p.Name}
	for _, ev := range p.Events {
		doc.Events = append(doc.Events, event{
			Kind: string(ev.Kind), At: dur(ev.At), Until: dur(ev.Until),
			Node: ev.Node, NodeB: ev.NodeB, Apprank: ev.Apprank, Speed: ev.Speed,
			Cores: ev.Cores, Delay: dur(ev.Delay), Jitter: dur(ev.Jitter), Drop: ev.Drop,
		})
	}
	out, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return out
}
