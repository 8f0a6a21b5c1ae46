package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goldenPath holds the pinned sha256 of every golden artifact, one
// "<hex>  <name>" line each (sha256sum format, sorted by name).
// Refresh it only on an intended output change:
//
//	go test ./cmd/lbsim -run Golden -update
const goldenPath = "testdata/golden.sha256"

var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current outputs")

// checkGolden compares the sha256 of each named artifact with its
// pinned value. Under -update it records the hashes instead, keeping
// every other pinned line.
func checkGolden(t *testing.T, artifacts map[string][]byte) {
	t.Helper()
	pinned := readGolden(t)
	if *update {
		for name, data := range artifacts {
			pinned[name] = sha256Hex(data)
		}
		writeGolden(t, pinned)
		return
	}
	for name, data := range artifacts {
		if len(data) == 0 {
			t.Errorf("%s: empty artifact", name)
			continue
		}
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%s: no pinned hash in %s (run with -update to record it)", name, goldenPath)
			continue
		}
		if got := sha256Hex(data); got != want {
			t.Errorf("%s: sha256 %s, pinned %s (%d bytes)", name, got, want, len(data))
		}
	}
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	pinned := map[string]string{}
	f, err := os.Open(goldenPath)
	if os.IsNotExist(err) && *update {
		return pinned
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		pinned[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pinned
}

func writeGolden(t *testing.T, pinned map[string]string) {
	t.Helper()
	names := make([]string, 0, len(pinned))
	for name := range pinned {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s  %s\n", pinned[name], name)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// stdoutOf runs lbsim and returns its stdout, failing on a non-zero exit.
func stdoutOf(t *testing.T, args ...string) []byte {
	t.Helper()
	code, out, stderr := exec(t, args...)
	if code != 0 {
		t.Fatalf("lbsim %v: exit = %d, stderr = %q", args, code, stderr)
	}
	return []byte(out)
}

// readArtifact reads a file lbsim wrote.
func readArtifact(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenMatrixFigureCSVs pins the quick CSVs of three figures with
// different runtime profiles: fig5 (MicroPP), fig9 (synthetic scaling)
// and resilience (fault sweeps under offload degree 3).
func TestGoldenMatrixFigureCSVs(t *testing.T) {
	artifacts := map[string][]byte{}
	for _, id := range []string{"fig5", "fig9", "resilience"} {
		artifacts[id+".csv"] = stdoutOf(t, "-exp", id, "-scale", "quick", "-format", "csv")
	}
	checkGolden(t, artifacts)
}

// TestGoldenMatrixFaultPreset pins the fault-demo path: a preset plan
// with its typed error notes.
func TestGoldenMatrixFaultPreset(t *testing.T) {
	checkGolden(t, map[string][]byte{
		"faults-storm.csv": stdoutOf(t, "-faults", "storm", "-scale", "quick", "-format", "csv"),
	})
}

// TestGoldenMatrixTraces pins the Chrome trace and metrics JSON of the
// traced fig5 and fig9 variants: the full event stream, so any change
// to same-instant event ordering shows here.
func TestGoldenMatrixTraces(t *testing.T) {
	dir := t.TempDir()
	artifacts := map[string][]byte{}
	for _, id := range []string{"fig5", "fig9"} {
		tracePath := filepath.Join(dir, id+"-trace.json")
		metricsPath := filepath.Join(dir, id+"-metrics.json")
		stdoutOf(t, "-exp", id, "-scale", "quick", "-trace", tracePath, "-metricsjson", metricsPath)
		artifacts[id+"-trace.json"] = readArtifact(t, tracePath)
		artifacts[id+"-metrics.json"] = readArtifact(t, metricsPath)
	}
	checkGolden(t, artifacts)
}

// TestGoldenPOPJSON pins the POP efficiency reports of the efficiency
// experiment's representative configurations.
func TestGoldenPOPJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pop.json")
	stdoutOf(t, "-exp", "efficiency", "-scale", "quick", "-popjson", path)
	checkGolden(t, map[string][]byte{"efficiency-pop.json": readArtifact(t, path)})
}
