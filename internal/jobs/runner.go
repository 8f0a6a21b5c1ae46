package jobs

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"ompsscluster/internal/expander"
	"ompsscluster/internal/experiments"
	"ompsscluster/internal/nbody"
	"ompsscluster/internal/simtime"
	"ompsscluster/internal/sweep"
)

// Terminal causes the runner distinguishes on a job context.
var (
	// errDraining stops the current job for a graceful shutdown; the
	// job goes back to Pending and resumes from its checkpoint on the
	// next start.
	errDraining = errors.New("server draining")
	// errCanceled is a client cancellation of the running job.
	errCanceled = errors.New("canceled by request")
)

// Runner executes queued jobs one at a time, in FIFO order, on a
// single goroutine. One-at-a-time is a feature, not a limitation: each
// figure already sweeps its simulator runs in parallel (Spec.Parallel),
// and serial job execution keeps the global spec indexing — and with
// it the checkpoint format — trivially deterministic.
//
// A job that panics is retried with exponential backoff up to Retries
// attempts and then quarantined as Failed; the panic never reaches the
// server. Every attempt resumes from the job's checkpoint, so work
// completed before a panic is never redone — and if the panic is
// deterministic, each retry still makes progress up to the poisoned
// spec.
type Runner struct {
	queue *Queue
	cache *Cache
	// ckptDir holds per-spec-hash checkpoint snapshots.
	ckptDir string

	// Retries is the attempt budget per job (default 3).
	Retries int
	// Backoff is the base retry delay, doubled per attempt (default
	// 250ms).
	Backoff time.Duration
	// Timeout is the default per-job wall-clock budget; a spec's
	// timeout_sec overrides it. 0 = unlimited.
	Timeout time.Duration
	// DefaultParallel is the sweep parallelism for specs that leave
	// Parallel unset.
	DefaultParallel int

	// runFn computes a spec's figure; tests substitute failure modes.
	runFn func(spec Spec, sc experiments.Scale) (*experiments.Result, error)

	mu        sync.Mutex
	curID     string
	curCancel context.CancelCauseFunc

	wake chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRunner wires a runner to its queue, cache, and state directory.
func NewRunner(q *Queue, cache *Cache, stateDir string) *Runner {
	return &Runner{
		queue:   q,
		cache:   cache,
		ckptDir: filepath.Join(stateDir, "checkpoints"),
		Retries: 3,
		Backoff: 250 * time.Millisecond,
		runFn:   runSpec,
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
}

// runSpec is the per-spec runner entry point into the experiments
// package: the spec's run kind dispatches exactly like the lbsim CLI.
// sc arrives fully configured, including the job hooks that thread
// checkpointing and cancellation through every figure sweep.
func runSpec(spec Spec, sc experiments.Scale) (*experiments.Result, error) {
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	switch {
	case spec.Policy != "":
		return experiments.PolicyDemo(sc, spec.Policy, plan)
	case plan != nil:
		return experiments.FaultDemo(sc, plan), nil
	default:
		return experiments.ByID(spec.Experiment, sc)
	}
}

// Start launches the worker goroutine.
func (r *Runner) Start() {
	r.wg.Add(1)
	go r.loop()
}

// Kick nudges the worker after a submission.
func (r *Runner) Kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Drain stops the runner gracefully: the running job is interrupted
// (its sweep stops drawing specs; its checkpoint stays) and demoted
// back to Pending, then the worker exits. Safe to call once.
func (r *Runner) Drain() {
	close(r.stop)
	r.cancelCurrent(errDraining)
	r.wg.Wait()
}

// Cancel withdraws a job: pending jobs flip to Canceled directly, the
// running job has its context canceled and the runner records the
// state. Returns false for unknown or already-finished jobs.
func (r *Runner) Cancel(id string) bool {
	r.mu.Lock()
	if r.curID == id && r.curCancel != nil {
		r.curCancel(errCanceled)
		r.mu.Unlock()
		return true
	}
	r.mu.Unlock()
	return r.queue.CancelPending(id)
}

func (r *Runner) cancelCurrent(cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.curCancel != nil {
		r.curCancel(cause)
	}
}

func (r *Runner) stopping() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

func (r *Runner) loop() {
	defer r.wg.Done()
	for {
		if r.stopping() {
			return
		}
		job, ok := r.queue.ClaimNext()
		if !ok {
			select {
			case <-r.wake:
			case <-r.stop:
				return
			}
			continue
		}
		r.process(job)
	}
}

// process drives one claimed job to a terminal state (or back to
// Pending when draining).
func (r *Runner) process(job Job) {
	// Content-address lookup first: an identical spec that already
	// completed — under any engine — is served from disk in O(1).
	if _, ok := r.cache.Get(job.Hash); ok {
		r.queue.MarkCacheHit(job.ID)
		return
	}
	ckptPath := filepath.Join(r.ckptDir, job.Hash+".json")
	for attempt := 1; ; attempt++ {
		r.queue.IncAttempts(job.ID)
		ckpt := OpenCheckpoint(ckptPath)
		r.queue.SetProgress(job.ID, ckpt.Len())
		res, err := r.runOnce(job, ckpt)
		cause := err
		switch {
		case cause == nil:
			doc, encErr := EncodeResult(job.Hash, res)
			if encErr != nil {
				r.queue.SetState(job.ID, Failed, fmt.Sprintf("encoding result: %v", encErr))
				return
			}
			if putErr := r.cache.Put(job.Hash, doc); putErr != nil {
				r.queue.SetState(job.ID, Failed, fmt.Sprintf("caching result: %v", putErr))
				return
			}
			ckpt.Remove()
			r.queue.SetState(job.ID, Succeeded, "")
			return
		case errors.Is(cause, errDraining):
			r.queue.SetState(job.ID, Pending, "")
			return
		case errors.Is(cause, errCanceled):
			r.queue.SetState(job.ID, Canceled, "canceled while running (checkpoint kept; resubmit to resume)")
			return
		case errors.Is(cause, context.DeadlineExceeded):
			r.queue.SetState(job.ID, Failed, "wall-clock timeout (checkpoint kept; resubmit to resume)")
			return
		default:
			var pe *panicError
			if !errors.As(cause, &pe) {
				// A plain error (unknown policy slipping past validation,
				// a figure refusing its configuration): terminal, no retry.
				r.queue.SetState(job.ID, Failed, cause.Error())
				return
			}
			// Panic: retry with backoff inside the attempt budget, then
			// quarantine. The server never crashes with the job, and each
			// retry resumes from the checkpoint, so pre-panic work is
			// never redone.
			if attempt >= r.Retries {
				r.queue.SetState(job.ID, Failed, fmt.Sprintf(
					"quarantined after %d attempts: %s", attempt, pe.Error()))
				return
			}
			delay := r.Backoff << (attempt - 1)
			select {
			case <-time.After(delay):
			case <-r.stop:
				r.queue.SetState(job.ID, Pending, "")
				return
			}
		}
	}
}

// panicError is a recovered job panic, carrying the panic site's stack
// (for a sweep worker panic, the original job goroutine's stack that
// sweep.JobPanic preserved).
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("job panicked: %v\n%s", e.value, e.stack)
}

// runOnce executes one attempt of a job with checkpoint hooks and the
// cancellation/timeout context attached, converting panics to errors.
func (r *Runner) runOnce(job Job, ckpt *Checkpointer) (res *experiments.Result, err error) {
	sc, scErr := experiments.ScaleByName(job.Spec.Scale)
	if scErr != nil {
		return nil, scErr
	}
	sc.Seed = job.Spec.Seed
	sc.Parallel = job.Spec.Parallel
	if sc.Parallel == 0 {
		sc.Parallel = r.DefaultParallel
	}
	switch job.Spec.Engine {
	case "goroutine":
		sc.GoroutineEngine = true
	case "parallel":
		sc.SimParallel = true
		sc.SimWorkers = job.Spec.SimWorkers
	}
	sc.Graphs = expander.NewStore("")
	sc.Trajectories = nbody.NewStore()
	sc.Engine = simtime.NewStatsCollector()

	ctx, cancel := context.WithCancelCause(context.Background())
	timeout := r.Timeout
	if job.Spec.TimeoutSec > 0 {
		timeout = time.Duration(job.Spec.TimeoutSec) * time.Second
	}
	if timeout > 0 {
		tctx, tcancel := context.WithTimeoutCause(ctx, timeout, context.DeadlineExceeded)
		defer tcancel()
		ctx = tctx
	}
	r.mu.Lock()
	r.curID, r.curCancel = job.ID, cancel
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.curID, r.curCancel = "", nil
		r.mu.Unlock()
		cancel(nil)
		if v := recover(); v != nil {
			if jp, ok := v.(*sweep.JobPanic); ok {
				err = &panicError{value: jp.Value, stack: jp.Stack}
			} else {
				err = &panicError{value: v, stack: debug.Stack()}
			}
			res = nil
		}
	}()

	hooks := &experiments.JobHooks{
		Ctx:    ctx,
		Cached: ckpt.Cached,
		Done: func(idx int, enc []byte) {
			ckpt.Record(idx, enc)
			r.queue.SetProgress(job.ID, ckpt.Len())
		},
	}
	sc.Jobs = hooks
	res, err = r.runFn(job.Spec, sc)
	if hooks.Canceled() {
		// The sweep stopped drawing specs; the assembled Result is
		// partial garbage by contract. Surface why — the cause
		// (draining, cancel, deadline) decides the job's fate.
		return nil, context.Cause(ctx)
	}
	return res, err
}
