package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// goldenPath pins the sha256 of each timeline view, one "<hex>  <name>"
// line each (sha256sum format, sorted by name). Refresh it only on an
// intended output change:
//
//	go test ./cmd/traceview -run Golden -update
const goldenPath = "testdata/golden.sha256"

var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current outputs")

func exec(args ...string) (int, string, string) {
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestGoldenViews pins the text, CSV and Paraver views of the traced
// fig5 and fig9 variants at quick scale.
func TestGoldenViews(t *testing.T) {
	got := map[string]string{}
	for _, id := range []string{"fig5", "fig9"} {
		for ext, flags := range map[string][]string{"txt": nil, "csv": {"-csv"}, "prv": {"-prv"}} {
			args := append([]string{"-exp", id, "-scale", "quick"}, flags...)
			code, out, stderr := exec(args...)
			if code != 0 || out == "" {
				t.Fatalf("traceview %v: exit %d, %d bytes, stderr %q", args, code, len(out), stderr)
			}
			got[id+"."+ext] = sha256Hex(out)
		}
	}
	if *update {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	pinned := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		pinned++
		if got[name] != sum {
			t.Errorf("%s: sha256 %s, pinned %s", name, got[name], sum)
		}
	}
	if pinned != len(got) {
		t.Errorf("%s pins %d views, the test renders %d", goldenPath, pinned, len(got))
	}
}

// TestRunRejects covers the argument checks. Every case fails before
// any simulation runs, so the oversized width is never rendered.
func TestRunRejects(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-exp", "fig5", "-csv", "-prv"}, 2, "exclusive"},
		{[]string{"-csv", "-chrome"}, 2, "exclusive"},
		{[]string{"-prv", "-pop"}, 2, "exclusive"},
		{[]string{"-chrome", "-pop"}, 2, "exclusive"},
		{[]string{"-csv", "-prv", "-chrome", "-pop"}, 2, "exclusive"},
		{[]string{"-width", "0"}, 2, "-width 0 outside [1, 10000]"},
		{[]string{"-width", "-5"}, 2, "outside [1, 10000]"},
		{[]string{"-width", "10001"}, 2, "outside [1, 10000]"},
		{[]string{"-width", "1000000000"}, 2, "outside [1, 10000]"},
		{[]string{"-scale", "huge"}, 1, "unknown scale"},
		{[]string{"-exp", "fig6a"}, 1, "no traced variant"},
		{[]string{"-exp", "fig6a", "-pop"}, 1, "no POP-report variant"},
	} {
		code, out, stderr := exec(tc.args...)
		if code != tc.code || out != "" || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("traceview %v: exit %d, stdout %q, stderr %q; want exit %d, no stdout, stderr containing %q",
				tc.args, code, out, stderr, tc.code, tc.stderr)
		}
	}
}
