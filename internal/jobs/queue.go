package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// State is a job's lifecycle position.
type State string

const (
	// Pending jobs wait in FIFO order for the runner.
	Pending State = "pending"
	// Running is the (single) job the runner is executing.
	Running State = "running"
	// Succeeded jobs have their result document in the cache.
	Succeeded State = "succeeded"
	// Failed jobs exhausted their retry budget, timed out, or hit a
	// terminal error; Job.Error says which.
	Failed State = "failed"
	// Canceled jobs were withdrawn by the client. Their checkpoint is
	// kept: resubmitting the same spec resumes where they stopped.
	Canceled State = "canceled"
)

// Job is one queued spec and its progress. The persisted fields
// deliberately exclude wall-clock timestamps, so the queue file stays
// deterministic for a given submission history.
type Job struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	// Hash is the spec's content address.
	Hash  string `json:"hash"`
	State State  `json:"state"`
	// Attempts counts started executions (a job that panics and is
	// retried has Attempts > 1).
	Attempts int `json:"attempts,omitempty"`
	// Error is the terminal failure reason (Failed) or cancellation
	// note (Canceled).
	Error string `json:"error,omitempty"`
	// CacheHit marks a success served from the result cache without
	// any simulation.
	CacheHit bool `json:"cache_hit,omitempty"`

	// SpecsDone is the live progress counter (completed simulator
	// specs, including checkpointed ones adopted on resume). Not
	// persisted — the checkpoint file is the durable record.
	SpecsDone int `json:"-"`
}

// Queue is the FIFO job queue. Its file is a JSON stream of queueFile
// values: a snapshot, then one delta per state transition holding just
// the changed job, each appended with a single write(2). A killed
// server restarts exactly where it stopped: OpenQueue replays the
// stream and demotes Running back to Pending, and the job's checkpoint
// (keyed by spec hash, not job id) makes the re-run a resume.
//
// The snapshot is rewritten atomically (compacted) on open when the
// file held deltas, a torn tail or a Running job; in Close, unless the
// file already is the compact snapshot; and while serving, whenever the
// deltas outnumber the jobs — so the journal stays O(jobs) long at an
// amortized O(1) cost per transition.
type Queue struct {
	// Quarantined is the path a corrupt queue file was moved to by
	// OpenQueue (the queue then starts empty), or "" if none was.
	Quarantined string

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order; FIFO scheduling scans this
	nextID int
	// log is the journal that deltas are appended to.
	log lineLog
	// deltas counts the values appended since the last snapshot.
	deltas int
	// compact is set while the file is one snapshot line with no delta
	// after it: Close then has nothing to rewrite.
	compact bool
}

// queueFile is the on-disk format of both the snapshot (every job) and
// a delta (the one changed job). Replay upserts jobs by ID, so one type
// and one parser cover both, and a file holding just a snapshot — the
// indented single-document format of earlier versions included — is
// a journal with no deltas.
type queueFile struct {
	NextID int   `json:"next_id"`
	Jobs   []Job `json:"jobs"`
}

// OpenQueue loads the queue persisted at path (a missing or empty file
// is an empty queue). Jobs found Running were interrupted by a crash or
// kill; they are demoted to Pending — with their checkpoints intact —
// so the runner resumes them. A torn journal tail (a kill mid-append)
// is dropped. A snapshot that does not decode is moved aside to
// path+".corrupt", named in Quarantined, and the queue starts empty:
// checkpoints and cached results are keyed by spec hash, so
// resubmissions still resume or hit. The error reports only I/O
// failures.
func OpenQueue(path string) (*Queue, error) {
	q := &Queue{jobs: map[string]*Job{}, nextID: 1, log: lineLog{path: path}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return q, nil
	}
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	values, dirty := 0, false
	for {
		var f queueFile
		err := dec.Decode(&f)
		if err == io.EOF {
			break
		}
		if err != nil && values == 0 {
			q.Quarantined = path + ".corrupt"
			if err := os.Rename(path, q.Quarantined); err != nil {
				return nil, err
			}
			return q, nil
		}
		if err != nil {
			dirty = true // a torn tail: drop it
			break
		}
		values++
		q.apply(f)
	}
	for _, j := range q.jobs {
		if j.State == Running {
			j.State = Pending
			dirty = true
		}
	}
	if dirty || values > 1 {
		if err := q.compactLocked(); err != nil {
			return nil, err
		}
	} else {
		// A clean single value is the compact snapshot unless it is
		// the indented format of earlier versions.
		q.compact = values == 1 && bytes.IndexByte(data, '\n') == len(data)-1
	}
	return q, nil
}

// apply replays one snapshot or delta: jobs are upserted by ID, new
// IDs join the end of the submission order, and NextID is the latest
// value's.
func (q *Queue) apply(f queueFile) {
	q.nextID = f.NextID
	for i := range f.Jobs {
		j := f.Jobs[i]
		if _, ok := q.jobs[j.ID]; !ok {
			q.order = append(q.order, j.ID)
		}
		q.jobs[j.ID] = &j
	}
}

// Submit appends a normalized spec with its content address and
// persists. The returned copy is the job as created.
func (q *Queue) Submit(spec Spec, hash string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	id := fmt.Sprintf("j%d", q.nextID)
	for q.jobs[id] != nil { // a damaged next_id must not reuse an ID
		q.nextID++
		id = fmt.Sprintf("j%d", q.nextID)
	}
	j := &Job{ID: id, Spec: spec, Hash: hash, State: Pending}
	q.nextID++
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
	if err := q.persistLocked(j); err != nil {
		return Job{}, err
	}
	return *j, nil
}

// ClaimNext atomically promotes the oldest Pending job to Running and
// returns it. ok is false when nothing is pending.
func (q *Queue) ClaimNext() (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, id := range q.order {
		j := q.jobs[id]
		if j.State != Pending {
			continue
		}
		j.State = Running
		q.persistLocked(j)
		return *j, true
	}
	return Job{}, false
}

// SetState records a transition (and clears or sets the error note)
// and persists.
func (q *Queue) SetState(id string, st State, errMsg string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return
	}
	j.State = st
	j.Error = errMsg
	q.persistLocked(j)
}

// IncAttempts bumps the persisted attempt counter (one per started
// execution, including retries after a panic) and returns the total.
func (q *Queue) IncAttempts(id string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return 0
	}
	j.Attempts++
	q.persistLocked(j)
	return j.Attempts
}

// MarkCacheHit flags a success as served from the cache.
func (q *Queue) MarkCacheHit(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[id]; ok {
		j.CacheHit = true
		j.State = Succeeded
		q.persistLocked(j)
	}
}

// CancelPending cancels a job only if it has not started; the runner
// owns cancellation of the running job.
func (q *Queue) CancelPending(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok || j.State != Pending {
		return false
	}
	j.State = Canceled
	j.Error = "canceled before start"
	q.persistLocked(j)
	return true
}

// SetProgress updates the live spec counter (in-memory only).
func (q *Queue) SetProgress(id string, specsDone int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[id]; ok {
		j.SpecsDone = specsDone
	}
}

// Get returns a copy of the job.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns copies of every job in submission order.
func (q *Queue) List() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, *q.jobs[id])
	}
	return out
}

// Counts returns the number of jobs in each state.
func (q *Queue) Counts() map[State]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := map[State]int{}
	for _, j := range q.jobs {
		out[j.State]++
	}
	return out
}

// persistLocked appends j's transition to the journal as one delta
// line, and compacts once the deltas outnumber the jobs. Only the
// append's error is returned: a failed compaction leaves a valid
// journal and is retried on the next transition.
func (q *Queue) persistLocked(j *Job) error {
	q.compact = false
	line, err := json.Marshal(queueFile{NextID: q.nextID, Jobs: []Job{*j}})
	if err != nil {
		return err
	}
	if err := q.log.append(append(line, '\n')); err != nil {
		return err
	}
	if q.deltas++; q.deltas > len(q.jobs) {
		q.compactLocked()
	}
	return nil
}

// compactLocked atomically replaces the file with a one-line snapshot
// of the whole queue and starts a new journal after it.
func (q *Queue) compactLocked() error {
	f := queueFile{NextID: q.nextID, Jobs: make([]Job, 0, len(q.order))}
	for _, id := range q.order {
		f.Jobs = append(f.Jobs, *q.jobs[id])
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := writeFileAtomic(q.log.path, append(data, '\n')); err != nil {
		return err
	}
	// The open journal is the replaced file; the next delta reopens.
	q.log.close()
	q.deltas = 0
	q.compact = true
	return nil
}

// Close compacts the journal into a one-line snapshot, unless the file
// already is one, and releases the file handle; lbsimd calls it once
// the runner has drained. A later transition reopens the journal.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	var err error
	if !q.compact {
		err = q.compactLocked()
	}
	if cerr := q.log.close(); err == nil {
		err = cerr
	}
	return err
}
