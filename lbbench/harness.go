package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// harness owns the binaries under test and a scratch directory inside
// the checkout; close removes both.
type harness struct {
	repo   string // repository root: holds go.mod, cmd/ and BENCHMARK.json
	work   string // scratch directory, removed by close
	lbsim  string
	lbsimd string
}

// buildDir is the checkout-relative directory every build and run
// writes under; the repository's .gitignore lists it.
const buildDir = ".bench_build"

// newHarness builds cmd/lbsim and cmd/lbsimd from the repository at
// repo into a fresh temporary directory.
func newHarness(repo string) (*harness, error) {
	base := filepath.Join(repo, buildDir)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	h, err := buildHarness(repo, work)
	if err != nil {
		os.RemoveAll(work)
	}
	return h, err
}

// buildHarness builds cmd/lbsim and cmd/lbsimd from the repository at
// repo into the existing directory work, which also takes the scratch
// files.
func buildHarness(repo, work string) (*harness, error) {
	h := &harness{repo: repo, work: work,
		lbsim: filepath.Join(work, "lbsim"), lbsimd: filepath.Join(work, "lbsimd")}
	for _, b := range []struct{ out, pkg string }{{h.lbsim, "./cmd/lbsim"}, {h.lbsimd, "./cmd/lbsimd"}} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = repo
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("building %s in %s: %w", b.pkg, repo, err)
		}
	}
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.work) }

// childEnv is the environment of every measured process: the harness's
// own, minus the runtime knobs (GOGC, GODEBUG, GOMAXPROCS) so each
// commit runs under its own defaults, plus extra.
func childEnv(extra ...string) []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		if k == "GOGC" || k == "GODEBUG" || k == "GOMAXPROCS" {
			continue
		}
		env = append(env, kv)
	}
	return append(env, extra...)
}

// procStats is what the kernel reports about one finished process.
type procStats struct {
	wall   float64 // seconds from start to reaped
	cpu    float64 // user plus system seconds
	rssMiB float64 // peak resident set
}

func statsOf(ps *os.ProcessState, wall time.Duration) procStats {
	st := procStats{wall: wall.Seconds()}
	if ps == nil {
		return st
	}
	st.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		st.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return st
}

// command prepares a measured process in the scratch directory. The
// kernel kills it if the harness dies first, so an interrupted run
// leaves no lbsim or lbsimd behind.
func (h *harness) command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.Dir = h.work
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// run executes bin to completion.
func (h *harness) run(bin string, args []string, stdout, stderr io.Writer, env []string) (procStats, error) {
	cmd := h.command(bin, args...)
	cmd.Env = env
	cmd.Stdout, cmd.Stderr = stdout, stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return procStats{}, err
	}
	err := cmd.Wait()
	st := statsOf(cmd.ProcessState, time.Since(start))
	if err != nil {
		return st, fmt.Errorf("%s %s: %w", filepath.Base(bin), strings.Join(args, " "), err)
	}
	return st, nil
}

// fileDigest returns the sha256 and size of a file.
func fileDigest(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	hsh := sha256.New()
	n, err := io.Copy(hsh, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(hsh.Sum(nil)), n, nil
}
