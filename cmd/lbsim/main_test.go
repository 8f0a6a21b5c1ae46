package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

// exec runs the command line and captures exit code, stdout, and stderr.
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunUnknownFlag(t *testing.T) {
	code, _, stderr := exec(t, "-no-such-flag")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("stderr missing flag diagnostic: %q", stderr)
	}
}

func TestRunUnknownScale(t *testing.T) {
	code, _, stderr := exec(t, "-exp", "fig8", "-scale", "huge")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, `unknown scale "huge"`) {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	code, _, stderr := exec(t, "-exp", "nope", "-scale", "quick")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, `unknown id "nope"`) {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestRunUnreadableFaultPlan(t *testing.T) {
	code, _, stderr := exec(t, "-faults", "/no/such/plan.json", "-scale", "quick")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "neither a readable plan file") {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestRunMalformedFaultPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"events": [{"kind": "slow", "at": "not-a-duration"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := exec(t, "-faults", path, "-scale", "quick")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "bad at duration") {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestRunNoModeShowsUsage(t *testing.T) {
	code, _, stderr := exec(t)
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "-exp") {
		t.Errorf("usage not printed: %q", stderr)
	}
}

func TestRunList(t *testing.T) {
	code, stdout, _ := exec(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, id := range []string{"fig8", "headline", "resilience"} {
		if !strings.Contains(stdout, id) {
			t.Errorf("-list missing %q", id)
		}
	}
}

func TestRunUnknownFormat(t *testing.T) {
	code, _, stderr := exec(t, "-faults", "drainhelper", "-scale", "quick", "-format", "xml", "-parallel", "2")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, `unknown format "xml"`) {
		t.Errorf("stderr = %q", stderr)
	}
}

// TestRunFaultPreset is the quickstart path: a preset plan runs the
// demo and prints both policies.
func TestRunFaultPreset(t *testing.T) {
	code, stdout, stderr := exec(t, "-faults", "drainhelper", "-scale", "quick", "-format", "csv", "-parallel", "2")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "static") || !strings.Contains(stdout, "lewi+global") {
		t.Errorf("demo output missing series:\n%s", stdout)
	}
}

func TestRunFaultsWithExpConflict(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "storm", "-exp", "fig8", "-scale", "quick"},
		{"-faults", "storm", "-all", "-scale", "quick"},
	} {
		code, _, stderr := exec(t, args...)
		if code != 1 {
			t.Errorf("%v: exit = %d, want 1", args, code)
		}
		if !strings.Contains(stderr, "-faults cannot be combined") {
			t.Errorf("%v: stderr = %q", args, stderr)
		}
	}
}

func TestRunPolicyWithExpConflict(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "guided", "-exp", "fig8", "-scale", "quick"},
		{"-policy", "guided", "-all", "-scale", "quick"},
	} {
		code, _, stderr := exec(t, args...)
		if code != 1 {
			t.Errorf("%v: exit = %d, want 1", args, code)
		}
		if !strings.Contains(stderr, "-policy cannot be combined") {
			t.Errorf("%v: stderr = %q", args, stderr)
		}
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	code, _, stderr := exec(t, "-policy", "nosuch", "-scale", "quick")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "nosuch") {
		t.Errorf("stderr = %q", stderr)
	}
	// "off" parses as a SelfSched value but is not a runnable policy.
	code, _, stderr = exec(t, "-policy", "off", "-scale", "quick")
	if code != 1 {
		t.Errorf("-policy off: exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "not a runnable policy") {
		t.Errorf("-policy off: stderr = %q", stderr)
	}
}

func TestRunPolicyDemo(t *testing.T) {
	code, stdout, stderr := exec(t, "-policy", "twolevel", "-scale", "quick")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	if !strings.Contains(stdout, "twolevel") || !strings.Contains(stdout, "lewi+global") {
		t.Errorf("stdout missing policy series:\n%s", stdout)
	}
}

func TestRunPolicyDemoWithFaults(t *testing.T) {
	code, stdout, stderr := exec(t, "-policy", "wfactoring", "-faults", "storm", "-scale", "quick")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	if !strings.Contains(stdout, "fault plan") {
		t.Errorf("stdout missing fault-plan title:\n%s", stdout)
	}
}

// expectUndefinedFlag runs lbsim with args and checks that flag is
// rejected as undefined: a flag error, not a silently ignored option.
func expectUndefinedFlag(t *testing.T, flag string, args ...string) {
	t.Helper()
	code, _, stderr := exec(t, args...)
	if code != 2 {
		t.Errorf("%v: exit = %d, want 2", args, code)
	}
	if !strings.Contains(stderr, "flag provided but not defined: "+flag) {
		t.Errorf("%v: stderr = %q", args, stderr)
	}
}

// TestRunUnknownEngine: there is one event engine, so -engine is gone and
// any value for it, valid once or not, is a flag error.
func TestRunUnknownEngine(t *testing.T) {
	for _, engine := range []string{"warp", "continuation", "goroutine", "parallel"} {
		expectUndefinedFlag(t, "-engine", "-exp", "fig8", "-scale", "quick", "-engine", engine)
	}
}

// TestRunSimWorkersRequiresParallelEngine: with the partitioned parallel
// engine deleted, its -simworkers and -simjson options are flag errors.
func TestRunSimWorkersRequiresParallelEngine(t *testing.T) {
	expectUndefinedFlag(t, "-simworkers", "-exp", "fig8", "-scale", "quick", "-simworkers", "4")
	expectUndefinedFlag(t, "-simworkers", "-exp", "fig8", "-scale", "quick", "-simworkers", "-3")
	expectUndefinedFlag(t, "-simjson", "-exp", "fig8", "-scale", "quick", "-simjson", "sim.json")
}

// TestRunEngineStats checks the -enginestats stderr line and that the
// -enginejson total carries every counter the benchmark harness reads.
func TestRunEngineStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "engine.json")
	code, _, stderr := exec(t, "-exp", "fig8", "-scale", "quick", "-format", "csv",
		"-enginestats", "-enginejson", path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	for _, want := range []string{"lbsim: fig8:", "runs", "fast-path", "parks", "wakes", "peak"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-enginestats output missing %q:\n%s", want, stderr)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Experiments []map[string]any `json:"experiments"`
		Total       map[string]any   `json:"total"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Experiments) != 1 || report.Experiments[0]["id"] != "fig8" {
		t.Errorf("experiments = %v, want one fig8 entry", report.Experiments)
	}
	for _, key := range []string{"runs", "events", "fast_path_events", "heap_pushes", "parks",
		"wakes", "peak_goroutines", "registry_hiwater", "run_host_seconds"} {
		if _, ok := report.Total[key]; !ok {
			t.Errorf("-enginejson total missing %q: %v", key, report.Total)
		}
	}
	if n, _ := report.Total["events"].(float64); n <= 0 {
		t.Errorf("-enginejson total events = %v, want > 0", report.Total["events"])
	}
}

// TestGCPercent pins the GOGC policy: 400, untouched whenever the
// environment sets GOGC.
func TestGCPercent(t *testing.T) {
	cases := []struct {
		env     string
		percent int
		ok      bool
	}{
		{"", 400, true},
		{"100", 0, false},
		{"off", 0, false},
	}
	for _, tc := range cases {
		p, ok := gcPercent(tc.env)
		if p != tc.percent || ok != tc.ok {
			t.Errorf("gcPercent(%q) = (%d, %v), want (%d, %v)",
				tc.env, p, ok, tc.percent, tc.ok)
		}
	}
}

// TestGOGCEnvNeverOverridden is the regression test for the env
// contract: with GOGC set, run() must not call debug.SetGCPercent at
// all.
func TestGOGCEnvNeverOverridden(t *testing.T) {
	t.Setenv("GOGC", "123")
	old := debug.SetGCPercent(123)
	defer debug.SetGCPercent(old)
	if code, _, stderr := exec(t, "-exp", "fig8", "-scale", "quick", "-format", "csv"); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	if cur := debug.SetGCPercent(123); cur != 123 {
		t.Errorf("run() changed GC percent to %d despite explicit GOGC env", cur)
	}
}

func TestRunPoliciesExperiment(t *testing.T) {
	code, stdout, stderr := exec(t, "-exp", "policies", "-scale", "quick", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	for _, label := range []string{"guided", "factoring", "wfactoring", "twolevel", "lewi+global"} {
		if !strings.Contains(stdout, label) {
			t.Errorf("policies CSV missing series %q", label)
		}
	}
}

// TestRunTraceWriteFailure: a trace destination that rejects writes
// (/dev/full fails every write with ENOSPC) makes lbsim exit non-zero
// with the write error, and so does one that cannot be created.
func TestRunTraceWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	code, _, stderr := exec(t, "-exp", "fig9", "-scale", "quick", "-trace", "/dev/full")
	if code != 1 || !strings.Contains(stderr, "no space left") {
		t.Errorf("-trace /dev/full: exit = %d, stderr = %q; want 1 and the write error", code, stderr)
	}
	missing := filepath.Join(t.TempDir(), "no-such-dir", "t.json")
	if code, _, _ := exec(t, "-exp", "fig9", "-scale", "quick", "-trace", missing); code != 1 {
		t.Errorf("-trace into a missing directory: exit = %d, want 1", code)
	}
}
