package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// BENCHMARK.json must list exactly the workloads and metrics the
// harness reports, with the same units and directions.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	ws, err := workloads(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSpec("../BENCHMARK.json", ws); err != nil {
		t.Fatal(err)
	}
}

// A BENCHMARK.json that drifted from the harness stops every run before
// it builds anything.
func TestRunRefusesDriftedSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	drifted := bytes.Replace(data, []byte(`"unit": "MiB"`), []byte(`"unit": "MB"`), 1)
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), drifted, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-repo", dir, "-workload", "fig8-default", "-seconds", "1"}, &out, &errOut)
	if code == 0 || out.Len() != 0 || !bytes.Contains(errOut.Bytes(), []byte("peak_rss_mb")) {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out.String(), errOut.String())
	}
}

func smokeRepo(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs lbsim and lbsimd")
	}
	repo, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// The real harness on a tiny plan: one rep and the profiled run of
// fig9 at quick scale, and a six-job service mix.
func TestSmokeTinyPlan(t *testing.T) {
	h, err := newHarness(smokeRepo(t))
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	tiny := []workload{
		&lbsimWorkload{name: "fig9-quick", steps: []lbsimStep{{label: "fig9",
			args: []string{"-exp", "fig9", "-scale", "quick", "-format", "csv", "-parallel", "1"}}}},
		&svcWorkload{name: "svc-tiny", plan: svcPlan(1, 6)},
	}
	start := time.Now()
	for _, w := range tiny {
		if err := w.warm(h); err != nil {
			t.Fatal(err)
		}
		c := newCollector()
		c.add(w.rep(h))
		c.add(w.profile(h, c.medianOf("wall_s")))
		res := c.result(endToEnd, perLayer)
		if res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: %d of %d failed: %v", w.Name(), res.Failed, res.Attempted, res.Errors)
		}
		for _, d := range endToEnd {
			if s := res.Metrics[d.name]; s.Median <= 0 {
				t.Errorf("%s: %s = %v", w.Name(), d.name, s.Median)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("tiny plan took %v", d)
	}
}

// A/B mode on a tiny plan, with the repository as its own base: both
// builds pass every check and every end-to-end metric gets a row. One
// pair is too few for worse or better, so the exit code is 0.
func TestABTinyPlan(t *testing.T) {
	repo := smokeRepo(t)
	h, err := newHarness(repo)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	tiny := []workload{
		&lbsimWorkload{name: "fig9-quick", steps: []lbsimStep{{label: "fig9",
			args: []string{"-exp", "fig9", "-scale", "quick", "-format", "csv", "-parallel", "1"}}}},
		&svcWorkload{name: "svc-tiny", plan: svcPlan(1, 6)},
	}
	var out, errOut bytes.Buffer
	if code := runAB(h, repo, tiny, 1, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
	for _, w := range tiny {
		for _, d := range endToEnd {
			if !regexp.MustCompile(`(?m)^` + w.Name() + `\s+` + d.name + `\s+1\s`).MatchString(out.String()) {
				t.Errorf("no one-pair row for %s %s:\n%s", w.Name(), d.name, out.String())
			}
		}
	}
}

// Without the program's sources the harness fails without a result.
func TestRunFailsWithoutSources(t *testing.T) {
	smokeRepo(t)
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-repo", dir, "-workload", "fig8-default", "-seconds", "1"}, &out, &errOut)
	if code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
