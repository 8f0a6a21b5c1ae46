// Command lbsimd serves the simulation experiments as a crash-safe job
// service: submissions are content-addressed, sweeps append each
// per-spec outcome to a checkpoint log, and a killed or drained server
// resumes its queue on restart and produces byte-identical results.
//
// Usage:
//
//	lbsimd -state ./lbsimd-state [-addr 127.0.0.1:8080]
//
//	curl -X POST localhost:8080/jobs -d '{"experiment":"fig8","scale":"quick"}'
//	curl localhost:8080/jobs/j1
//	curl localhost:8080/jobs/j1/result
//	curl -X POST localhost:8080/jobs/j1/cancel
//	curl localhost:8080/healthz
//
// SIGTERM/SIGINT drain gracefully: in-flight HTTP requests finish, the
// running job checkpoints and returns to the queue, and the process
// exits; the next start resumes it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"ompsscluster/internal/jobs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, in the repo's testable
// pattern: flags from args, output to the writers, failures as stderr
// messages plus a non-zero return. The crash/resume test drives a real
// lbsimd process through this entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lbsimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port; the bound address is printed)")
		stateDir = fs.String("state", "lbsimd-state", "state directory (queue, checkpoints, result cache)")
		retries  = fs.Int("retries", 3, "attempt budget per job before a panicking job is quarantined")
		backoff  = fs.Duration("backoff", 250*time.Millisecond, "base retry backoff, doubled per attempt")
		timeout  = fs.Duration("timeout", 0, "default per-job wall-clock budget (0 = unlimited; a spec's timeout_sec overrides)")
		parallel = fs.Int("parallel", runtime.NumCPU(), "default sweep parallelism for specs that leave it unset")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "lbsimd:", err)
		return 1
	}
	if err := os.MkdirAll(*stateDir, 0o755); err != nil {
		return fail(err)
	}
	queue, err := jobs.OpenQueue(filepath.Join(*stateDir, "queue.json"))
	if err != nil {
		return fail(err)
	}
	if queue.Quarantined != "" {
		fmt.Fprintf(stderr, "lbsimd: queue file was corrupt; moved it to %s and started with an empty queue\n", queue.Quarantined)
	}
	cache := jobs.NewCache(filepath.Join(*stateDir, "cache"))
	runner := jobs.NewRunner(queue, cache, *stateDir)
	runner.Retries = *retries
	runner.Backoff = *backoff
	runner.Timeout = *timeout
	runner.DefaultParallel = *parallel

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	runner.Start()
	runner.Kick() // resume anything the previous process left pending

	srv := &http.Server{Handler: (&jobs.Server{Queue: queue, Cache: cache, Runner: runner}).Handler()}
	// The bound address line is the startup handshake scripts and tests
	// key on (mandatory with -addr :0).
	fmt.Fprintf(stdout, "lbsimd: listening on http://%s (state %s)\n", ln.Addr(), *stateDir)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-sigs
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		runner.Drain()
	}()

	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		return fail(err)
	}
	<-done
	if err := queue.Close(); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "lbsimd: drained; state saved in %s\n", *stateDir)
	return 0
}
