package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ompsscluster/internal/expander"
	"ompsscluster/internal/experiments"
	"ompsscluster/internal/simtime"
)

func TestQueueFIFOAndCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.json")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := q.Submit(Spec{Experiment: "fig8", Scale: "quick"}, fmt.Sprintf("hash%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	first, ok := q.ClaimNext()
	if !ok || first.ID != ids[0] || first.State != Running {
		t.Fatalf("ClaimNext = %+v, want running %s", first, ids[0])
	}

	// Reopen mid-run, as after a SIGKILL: the running job is demoted to
	// pending with its place in line kept.
	q2, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := q2.Get(ids[0])
	if !ok || j.State != Pending {
		t.Fatalf("after reopen, %s = %+v, want pending", ids[0], j)
	}
	again, ok := q2.ClaimNext()
	if !ok || again.ID != ids[0] {
		t.Fatalf("reopened queue claimed %s, want %s (FIFO preserved)", again.ID, ids[0])
	}
	q2.SetState(ids[0], Succeeded, "")
	next, ok := q2.ClaimNext()
	if !ok || next.ID != ids[1] {
		t.Fatalf("claimed %s, want %s", next.ID, ids[1])
	}
	if !q2.CancelPending(ids[2]) {
		t.Fatal("CancelPending refused a pending job")
	}
	if q2.CancelPending(ids[1]) {
		t.Fatal("CancelPending canceled a running job")
	}
	counts := q2.Counts()
	if counts[Succeeded] != 1 || counts[Running] != 1 || counts[Canceled] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestCheckpointerRoundTripAndCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck", "h.json")
	c := OpenCheckpoint(path)
	c.Record(0, []byte("0x1.8p+01"))
	c.Record(7, []byte(`{"y":3,"err":"boom"}`))

	re := OpenCheckpoint(path)
	if got, ok := re.Cached(7); !ok || string(got) != `{"y":3,"err":"boom"}` {
		t.Fatalf("Cached(7) = %q, %v", got, ok)
	}
	if _, ok := re.Cached(3); ok {
		t.Fatal("Cached(3) hit for an unrecorded index")
	}
	if got := re.Indices(); len(got) != 2 || got[0] != 0 || got[1] != 7 {
		t.Fatalf("Indices = %v", got)
	}

	// A torn or corrupt snapshot must read as empty, never error: the
	// job just recomputes.
	if err := os.WriteFile(path, []byte(`{"done":{"0":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if OpenCheckpoint(path).Len() != 0 {
		t.Fatal("corrupt checkpoint not treated as empty")
	}
	if err := c.Remove(); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(); err != nil {
		t.Fatal("Remove of a missing checkpoint should be a no-op")
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c := NewCache(filepath.Join(t.TempDir(), "cache"))
	hash := "ab12cd"
	if _, ok := c.Get(hash); ok {
		t.Fatal("hit on empty cache")
	}
	doc := []byte(`{"hash":"ab12cd"}` + "\n")
	if err := c.Put(hash, doc); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(hash)
	if !ok || !bytes.Equal(got, doc) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

// newTestRunner builds a runner over a fresh state dir.
func newTestRunner(t *testing.T) (*Runner, *Queue, *Cache, string) {
	t.Helper()
	dir := t.TempDir()
	q, err := OpenQueue(filepath.Join(dir, "queue.json"))
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(filepath.Join(dir, "cache"))
	r := NewRunner(q, cache, dir)
	r.Backoff = time.Millisecond
	r.DefaultParallel = 2
	return r, q, cache, dir
}

// waitState polls until the job reaches a terminal state.
func waitState(t *testing.T, q *Queue, id string, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		j, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch j.State {
		case Succeeded, Failed, Canceled:
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, _ := q.Get(id)
	t.Fatalf("job %s stuck in %s after %v", id, j.State, timeout)
	return Job{}
}

func submit(t *testing.T, q *Queue, r *Runner, spec Spec) Job {
	t.Helper()
	spec, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	j, err := q.Submit(spec, hash)
	if err != nil {
		t.Fatal(err)
	}
	r.Kick()
	return j
}

func TestRunnerQuarantinesPanickingJobThenSurvives(t *testing.T) {
	r, q, _, _ := newTestRunner(t)
	r.Retries = 3
	r.runFn = func(spec Spec, sc experiments.Scale) (*experiments.Result, error) {
		if spec.Seed == 42 {
			panic("poisoned spec")
		}
		return &experiments.Result{ID: spec.Experiment, Title: "ok"}, nil
	}
	r.Start()
	defer r.Drain()

	bad := submit(t, q, r, Spec{Experiment: "fig8", Scale: "quick", Seed: 42})
	good := submit(t, q, r, Spec{Experiment: "fig8", Scale: "quick"})

	j := waitState(t, q, bad.ID, 10*time.Second)
	if j.State != Failed || j.Attempts != 3 {
		t.Fatalf("poisoned job = %+v, want failed after 3 attempts", j)
	}
	for _, want := range []string{"quarantined after 3 attempts", "poisoned spec"} {
		if !bytes.Contains([]byte(j.Error), []byte(want)) {
			t.Errorf("error %q missing %q", j.Error, want)
		}
	}
	// The server outlived the panics and ran the next job.
	if j := waitState(t, q, good.ID, 10*time.Second); j.State != Succeeded {
		t.Fatalf("job after quarantine = %+v, want succeeded", j)
	}
}

func TestRunnerTimeoutCancelAndDrain(t *testing.T) {
	r, q, _, _ := newTestRunner(t)
	// The fake job blocks until its context is canceled, so each
	// terminal cause is exercised deterministically.
	r.runFn = func(spec Spec, sc experiments.Scale) (*experiments.Result, error) {
		<-sc.Jobs.Ctx.Done()
		return &experiments.Result{ID: "blocked"}, nil
	}
	r.Start()

	timed := submit(t, q, r, Spec{Experiment: "fig8", Scale: "quick", TimeoutSec: 1})
	if j := waitState(t, q, timed.ID, 10*time.Second); j.State != Failed ||
		!bytes.Contains([]byte(j.Error), []byte("timeout")) {
		t.Fatalf("timed-out job = %+v, want failed with timeout", j)
	}

	canceled := submit(t, q, r, Spec{Experiment: "fig8", Scale: "quick", Seed: 5})
	for {
		if j, _ := q.Get(canceled.ID); j.State == Running {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !r.Cancel(canceled.ID) {
		t.Fatal("Cancel refused the running job")
	}
	if j := waitState(t, q, canceled.ID, 10*time.Second); j.State != Canceled {
		t.Fatalf("canceled job = %+v", j)
	}

	drained := submit(t, q, r, Spec{Experiment: "fig8", Scale: "quick", Seed: 6})
	for {
		if j, _ := q.Get(drained.ID); j.State == Running {
			break
		}
		time.Sleep(time.Millisecond)
	}
	r.Drain()
	if j, _ := q.Get(drained.ID); j.State != Pending {
		t.Fatalf("drained job = %+v, want pending (resumable on restart)", j)
	}
}

// TestRunnerCancelDuringRetryBackoff: a job waiting out a retry backoff
// is outside any attempt, but it is still the runner's claimed job, so
// Cancel must take it, and it must end Canceled without another attempt.
func TestRunnerCancelDuringRetryBackoff(t *testing.T) {
	r, q, _, _ := newTestRunner(t)
	r.Retries = 3
	r.Backoff = time.Hour
	var calls atomic.Int32
	attempted := make(chan struct{}, 1)
	r.runFn = func(Spec, experiments.Scale) (*experiments.Result, error) {
		calls.Add(1)
		attempted <- struct{}{}
		panic("flaky")
	}
	r.Start()
	defer r.Drain()

	j := submit(t, q, r, Spec{Experiment: "fig8", Scale: "quick"})
	<-attempted
	// The panic is recovered within microseconds; this leaves the runner
	// well inside its hour-long backoff.
	time.Sleep(50 * time.Millisecond)
	if !r.Cancel(j.ID) {
		t.Fatal("Cancel refused the job waiting out its retry backoff")
	}
	done := waitState(t, q, j.ID, 10*time.Second)
	if done.State != Canceled || done.Attempts != 1 || calls.Load() != 1 {
		t.Fatalf("job = %+v after %d runs, want canceled after 1", done, calls.Load())
	}
}

// TestOpenQueueWithLegacyEngineHints opens a queue file written before
// the engine hints were removed: its stored specs carry "engine" and
// "simworkers". The queue loads (stored specs decode leniently, unlike
// submissions), the content addresses still match, and the jobs run.
func TestOpenQueueWithLegacyEngineHints(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_queue.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.json")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(q, NewCache(filepath.Join(dir, "cache")), dir)
	r.DefaultParallel = 2
	r.Start()
	defer r.Drain()
	jobs := q.List()
	if len(jobs) != 2 {
		t.Fatalf("legacy queue holds %d jobs, want 2", len(jobs))
	}
	for _, j := range jobs {
		if hash, err := j.Spec.Hash(); err != nil || hash != j.Hash {
			t.Errorf("job %s: stored hash %s, recomputed %s (%v)", j.ID, j.Hash, hash, err)
		}
		if done := waitState(t, q, j.ID, 60*time.Second); done.State != Succeeded {
			t.Errorf("legacy job = %+v, want succeeded", done)
		}
	}
}

// quickScale returns the experiment scale the real-figure tests run at.
func quickScale() experiments.Scale {
	sc, _ := experiments.ScaleByName("quick")
	sc.Parallel = 2
	sc.Graphs = expander.NewStore("")
	sc.Engine = simtime.NewStatsCollector()
	return sc
}

func TestResultByteIdenticalAcrossParallelismAndCache(t *testing.T) {
	// The same spec, executed fresh at two sweep parallelisms in
	// separate state dirs, must produce byte-identical result documents
	// — the invariant that lets the cache serve a result computed under
	// one execution hint to submissions under another.
	spec := Spec{Experiment: "fig8", Scale: "quick"}
	var docs [][]byte
	for _, parallel := range []int{1, 4} {
		r, q, cache, _ := newTestRunner(t)
		r.Start()
		s := spec
		s.Parallel = parallel
		j := submit(t, q, r, s)
		done := waitState(t, q, j.ID, 60*time.Second)
		if done.State != Succeeded {
			t.Fatalf("parallel %d: job = %+v", parallel, done)
		}
		if done.CacheHit {
			t.Fatalf("parallel %d: fresh state dir reported a cache hit", parallel)
		}
		doc, ok := cache.Get(done.Hash)
		if !ok {
			t.Fatalf("parallel %d: result missing from cache", parallel)
		}
		docs = append(docs, doc)

		// Resubmitting the identical spec — under any hint — is a cache
		// hit returning the same bytes without re-simulating.
		s2 := spec
		s2.Parallel = 3
		j2 := submit(t, q, r, s2)
		done2 := waitState(t, q, j2.ID, 10*time.Second)
		if done2.State != Succeeded || !done2.CacheHit {
			t.Fatalf("parallel %d: resubmission = %+v, want cache hit", parallel, done2)
		}
		if done2.Hash != done.Hash {
			t.Fatalf("parallel hint changed the content address: %s vs %s", done2.Hash, done.Hash)
		}
		r.Drain()
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatalf("parallel 4 produced different result bytes than parallel 1:\n%s\nvs\n%s",
			docs[1], docs[0])
	}
	var doc ResultDoc
	if err := json.Unmarshal(docs[0], &doc); err != nil {
		t.Fatalf("result document is not valid JSON: %v", err)
	}
	if doc.ID != "fig8" || doc.CSV == "" {
		t.Fatalf("result document incomplete: %+v", doc)
	}
}

func TestResumeFromPartialCheckpointByteIdentical(t *testing.T) {
	// Run a figure once with full checkpointing, then replay it from a
	// checkpoint holding only half the spec outcomes. The resumed run
	// must recompute exactly the missing specs and assemble the same
	// figure byte for byte — the core crash-recovery guarantee, tested
	// here without process surgery (cmd/lbsimd's test does the SIGKILL
	// version).
	dir := t.TempDir()
	full := OpenCheckpoint(filepath.Join(dir, "full.json"))
	sc := quickScale()
	sc.Jobs = &experiments.JobHooks{Cached: full.Cached, Done: full.Record}
	r1 := experiments.Fig8(sc)
	doc1, err := EncodeResult("h", r1)
	if err != nil {
		t.Fatal(err)
	}
	indices := full.Indices()
	if len(indices) < 4 {
		t.Fatalf("fig8 checkpointed only %d specs", len(indices))
	}

	// Seed a partial checkpoint with every other outcome.
	partial := OpenCheckpoint(filepath.Join(dir, "partial.json"))
	for n, idx := range indices {
		if n%2 == 0 {
			enc, _ := full.Cached(idx)
			partial.Record(idx, enc)
		}
	}
	seeded := partial.Len()
	partial.Close()
	linesBefore := countLines(t, filepath.Join(dir, "partial.json"))

	// Done fires for every completed spec, cached or fresh; the
	// recompute count is the number of checkpoint misses, and only the
	// recomputed specs may be appended to the log.
	recomputed := 0
	reopened := OpenCheckpoint(filepath.Join(dir, "partial.json"))
	defer reopened.Close()
	sc2 := quickScale()
	sc2.Parallel = 1 // sequential, so the miss counter needs no lock
	sc2.Jobs = &experiments.JobHooks{
		Cached: func(idx int) ([]byte, bool) {
			enc, ok := reopened.Cached(idx)
			if !ok {
				recomputed++
			}
			return enc, ok
		},
		Done: reopened.Record,
	}
	r2 := experiments.Fig8(sc2)
	doc2, err := EncodeResult("h", r2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc1, doc2) {
		t.Fatalf("resumed figure differs from uninterrupted run:\n%s\nvs\n%s", doc2, doc1)
	}
	if recomputed != len(indices)-seeded {
		t.Fatalf("resume recomputed %d specs, want %d (seeded %d of %d)",
			recomputed, len(indices)-seeded, seeded, len(indices))
	}
	if grown := countLines(t, filepath.Join(dir, "partial.json")) - linesBefore; grown != recomputed {
		t.Fatalf("resume appended %d log lines, want %d (one per recomputed spec)", grown, recomputed)
	}
	full.Close()
}

// countLines returns the number of newline-terminated lines in a file.
func countLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte{'\n'})
}
