package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The crash tests need a real process to SIGKILL, so the test binary
// doubles as the daemon: with LBSIMD_CHILD set, TestMain bypasses the
// test framework and runs lbsimd's entry point directly.
func TestMain(m *testing.M) {
	if os.Getenv("LBSIMD_CHILD") == "1" {
		os.Exit(run(strings.Split(os.Getenv("LBSIMD_ARGS"), "\x1f"), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// server is one child lbsimd process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

var addrRe = regexp.MustCompile(`listening on (http://[^ ]+)`)

// startServer launches a child lbsimd on a free port over the given
// state dir and waits for its address line.
func startServer(t *testing.T, stateDir string) *server {
	t.Helper()
	args := []string{"-addr", "127.0.0.1:0", "-state", stateDir, "-backoff", "50ms"}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"LBSIMD_CHILD=1",
		"LBSIMD_ARGS="+strings.Join(args, "\x1f"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	lineCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				lineCh <- m[1]
			}
		}
	}()
	select {
	case base := <-lineCh:
		return &server{cmd: cmd, base: base}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("lbsimd never printed its address")
		return nil
	}
}

func (s *server) kill(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	s.cmd.Wait()
}

func (s *server) sigterm(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := s.cmd.Wait(); err != nil {
		t.Fatalf("lbsimd exited non-zero after SIGTERM: %v", err)
	}
}

func (s *server) post(t *testing.T, path, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(s.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("POST %s: bad JSON %q: %v", path, data, err)
	}
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: %d %v", path, resp.StatusCode, v)
	}
	return v
}

func (s *server) status(t *testing.T, id string) map[string]any {
	t.Helper()
	resp, err := http.Get(s.base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("status %s: bad JSON %q: %v", id, data, err)
	}
	return v
}

// waitSucceeded polls a job until it succeeds and returns its result
// document bytes.
func (s *server) waitSucceeded(t *testing.T, id string, timeout time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v := s.status(t, id)
		switch v["state"] {
		case "succeeded":
			resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/result", s.base, id))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result of %s: %d %s", id, resp.StatusCode, data)
			}
			return data
		case "failed", "canceled":
			t.Fatalf("job %s reached %s: %v", id, v["state"], v["error"])
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s not done after %v", id, timeout)
	return nil
}

// crashSpec is the job the kill tests run: fig6c at quick scale with a
// sequential sweep of 11 specs, ~1.5-3s in all on a 2-core x86-64 host.
// Only the first spec of each node count integrates the n-body physics,
// and the 8-node specs come last and take most of the time, so when
// specs_done reaches 2 over 90% of the sweep remains — a SIGKILL
// reliably lands mid-sweep, and the sweep stays fast enough for CI.
const crashSpec = `{"experiment":"fig6c","scale":"quick","parallel":1}`

func TestCrashResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers and runs multi-second sweeps")
	}
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")

	// Server A: submit, let the sweep checkpoint a couple of specs,
	// then SIGKILL mid-run.
	a1 := startServer(t, dirA)
	v := a1.post(t, "/jobs", crashSpec)
	id, hash := v["id"].(string), v["hash"].(string)
	deadline := time.Now().Add(120 * time.Second)
	for {
		st := a1.status(t, id)
		if done, ok := st["specs_done"].(float64); ok && done >= 2 {
			if st["state"] == "succeeded" {
				t.Fatal("job finished before the kill; slow the spec down")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached 2 completed specs")
		}
		time.Sleep(25 * time.Millisecond)
	}
	a1.kill(t)
	ckpt := filepath.Join(dirA, "checkpoints", hash+".json")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint survived the kill: %v", err)
	}

	// Restart over the same state: the interrupted job resumes from its
	// checkpoint and completes.
	a2 := startServer(t, dirA)
	resumed := a2.waitSucceeded(t, id, 180*time.Second)
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint not cleaned up after success (err %v)", err)
	}

	// Server B: the same spec, uninterrupted, in fresh state.
	b := startServer(t, dirB)
	bv := b.post(t, "/jobs", crashSpec)
	uninterrupted := b.waitSucceeded(t, bv["id"].(string), 180*time.Second)

	if !bytes.Equal(resumed, uninterrupted) {
		t.Fatalf("resumed result differs from uninterrupted run:\n%s\nvs\n%s", resumed, uninterrupted)
	}

	// Resubmitting the identical spec to the restarted server is a pure
	// cache hit: same bytes, no simulation.
	rv := a2.post(t, "/jobs", crashSpec)
	if rv["cached"] != true {
		t.Fatalf("resubmission not served from cache: %v", rv)
	}
	cached := a2.waitSucceeded(t, rv["id"].(string), 30*time.Second)
	if !bytes.Equal(cached, resumed) {
		t.Fatal("cache returned different bytes than the original result")
	}
	st := a2.status(t, rv["id"].(string))
	if st["cache_hit"] != true {
		t.Fatalf("resubmitted job status %v, want cache_hit", st)
	}

	b.sigterm(t)
	a2.sigterm(t)
}

func TestDrainOnSIGTERMThenResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers and runs multi-second sweeps")
	}
	dir := filepath.Join(t.TempDir(), "state")
	s1 := startServer(t, dir)
	v := s1.post(t, "/jobs", crashSpec)
	id := v["id"].(string)
	// Let the job start, then drain. The server must exit cleanly with
	// the job parked as pending (or already succeeded if it won the race).
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st := s1.status(t, id); st["state"] == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	s1.sigterm(t)

	s2 := startServer(t, dir)
	s2.waitSucceeded(t, id, 180*time.Second)
	s2.sigterm(t)
}
