package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestCheckpointLogTornTail cuts a checkpoint log at every byte offset
// inside its last line, as a kill mid-append would: every earlier
// record loads, the cut record is either absent or exact, and the next
// append after the torn fragment loads too.
func TestCheckpointLogTornTail(t *testing.T) {
	dir := t.TempDir()
	encs := map[int]string{
		0:  "0x1.8p+01",
		1:  `{"y":3,"err":"boom"}`,
		5:  "42",
		17: "line\nbreak \"quoted\" <tag> & é",
	}
	src := filepath.Join(dir, "full.json")
	c := OpenCheckpoint(src)
	for _, idx := range []int{0, 1, 5, 17} {
		c.Record(idx, []byte(encs[idx]))
	}
	c.Close()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1

	for cut := last; cut < len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.json", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re := OpenCheckpoint(path)
		for idx, want := range encs {
			got, ok := re.Cached(idx)
			if idx == 17 && !ok {
				continue
			}
			if !ok || string(got) != want {
				t.Fatalf("cut at %d: Cached(%d) = %q, %v; want %q", cut, idx, got, ok, want)
			}
		}
		re.Record(9, []byte("appended"))
		re.Close()
		again := OpenCheckpoint(path)
		if got, ok := again.Cached(9); !ok || string(got) != "appended" {
			t.Fatalf("cut at %d: record appended after the torn tail = %q, %v", cut, got, ok)
		}
		if got, ok := again.Cached(5); !ok || string(got) != "42" {
			t.Fatalf("cut at %d: earlier record lost after append: %q, %v", cut, got, ok)
		}
	}
}

// TestCheckpointIgnoresLegacySnapshot opens a checkpoint written by the
// single-snapshot format this log replaced ({"done":{...}}, indented),
// followed by lines that are JSON objects but not whole records. None
// may be misread as records — not even the stored encoding that looks
// like one — so the job recomputes, and new records appended after
// them load.
func TestCheckpointIgnoresLegacySnapshot(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	legacy = append(legacy, "{}\n{\"i\":4}\n{\"e\":\"x\"}\n{\"i\":-1,\"e\":\"x\"}\n{\"done\":{\"5\":\"x\"}}\n"...)
	path := filepath.Join(t.TempDir(), "h.json")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	c := OpenCheckpoint(path)
	if got := c.Indices(); len(got) != 0 {
		t.Fatalf("legacy snapshot misread as records %v", got)
	}
	c.Record(3, []byte("fresh"))
	c.Close()
	re := OpenCheckpoint(path)
	if got := re.Indices(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("after one append over a legacy snapshot, Indices = %v", got)
	}
	if got, _ := re.Cached(3); string(got) != "fresh" {
		t.Fatalf("Cached(3) = %q", got)
	}
}

// TestCheckpointLastLineWins: a log naming an index twice keeps the
// later encoding, and re-recording a known outcome appends nothing.
func TestCheckpointLastLineWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.json")
	c := OpenCheckpoint(path)
	c.Record(2, []byte("old"))
	c.Record(2, []byte("new"))
	c.Record(2, []byte("new"))
	c.Close()
	if n := countLines(t, path); n != 2 {
		t.Fatalf("log has %d lines, want 2", n)
	}
	if got, _ := OpenCheckpoint(path).Cached(2); string(got) != "new" {
		t.Fatalf("Cached(2) = %q, want the last line's encoding", got)
	}
}

// listJSON is the queue's job list as JSON, the form a replay must
// reproduce.
func listJSON(t *testing.T, jobs []Job) string {
	t.Helper()
	data, err := json.Marshal(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// reopenCopy opens a copy of the queue file at path, leaving the live
// queue's journal untouched. The open must leave the copy as a single
// snapshot line: it compacts any deltas, and a file that is already one
// snapshot stays one.
func reopenCopy(t *testing.T, path string) *Queue {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), "queue.json")
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := OpenQueue(cp)
	if err != nil {
		t.Fatal(err)
	}
	if q.Quarantined != "" {
		t.Fatalf("live journal quarantined on reopen:\n%s", data)
	}
	if n := countLines(t, cp); n != 1 {
		t.Fatalf("reopened journal of %d lines left %d lines, want 1", countLines(t, path), n)
	}
	return q
}

// demoted is the job list a restart recovers: Running becomes Pending.
func demoted(jobs []Job) []Job {
	out := append([]Job(nil), jobs...)
	for i := range out {
		if out[i].State == Running {
			out[i].State = Pending
		}
	}
	return out
}

// TestQueueJournalReplayMatchesLive drives a queue through random
// transitions. At every step, replaying its uncompacted file gives the
// live List() (Running demoted to Pending) and the file holds at most
// one line per job plus the snapshot. After a drain and Close the file
// is a single line, and reopening it reproduces the list without
// rewriting it.
func TestQueueJournalReplayMatchesLive(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			path := filepath.Join(t.TempDir(), "queue.json")
			q, err := OpenQueue(path)
			if err != nil {
				t.Fatal(err)
			}
			var ids []string
			states := []State{Pending, Running, Succeeded, Failed, Canceled}
			for step := 0; step < 300; step++ {
				pick := func() string {
					if len(ids) == 0 {
						return "j1"
					}
					return ids[rng.Intn(len(ids))]
				}
				switch op := rng.Intn(6); {
				case op == 0 || len(ids) == 0:
					j, err := q.Submit(Spec{Experiment: "fig8", Scale: "quick", Seed: rng.Int63n(100)}, fmt.Sprintf("h%d", step))
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, j.ID)
				case op == 1:
					q.ClaimNext()
				case op == 2:
					q.IncAttempts(pick())
				case op == 3:
					q.SetState(pick(), states[rng.Intn(len(states))], fmt.Sprintf("note %d", step))
				case op == 4:
					q.MarkCacheHit(pick())
				default:
					q.CancelPending(pick())
				}
				if step%7 != 0 {
					continue
				}
				re := reopenCopy(t, path)
				if got, want := listJSON(t, re.List()), listJSON(t, demoted(q.List())); got != want {
					t.Fatalf("step %d: replay\n%s\nwant\n%s", step, got, want)
				}
				if lines, n := countLines(t, path), len(q.List()); lines > n+1 {
					t.Fatalf("step %d: %d journal lines for %d jobs", step, lines, n)
				}
			}
			// As in lbsimd, the runner drains before Close: the running
			// job goes back to Pending.
			for _, j := range q.List() {
				if j.State == Running {
					q.SetState(j.ID, Pending, "")
				}
			}
			live := listJSON(t, q.List())
			if err := q.Close(); err != nil {
				t.Fatal(err)
			}
			if n := countLines(t, path); n != 1 {
				t.Fatalf("closed queue file has %d lines, want 1", n)
			}
			before, _ := os.ReadFile(path)
			st, _ := os.Stat(path)
			re, err := OpenQueue(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := listJSON(t, re.List()); got != live {
				t.Fatalf("reopen after Close:\n%s\nwant\n%s", got, live)
			}
			after, _ := os.ReadFile(path)
			st2, _ := os.Stat(path)
			if !bytes.Equal(before, after) || !os.SameFile(st, st2) {
				t.Fatal("a clean open rewrote the queue file")
			}
			re.Close()
		})
	}
}

// closedQueue returns the bytes of a closed (single-snapshot) queue
// holding a few jobs, and of the same queue with one more transition
// appended as a journal delta.
func closedQueue(t *testing.T) (snapshot, journal []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "queue.json")
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := q.Submit(Spec{Experiment: "fig8", Scale: "quick", Seed: int64(i + 1)}, fmt.Sprintf("h%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	snapshot, _ = os.ReadFile(path)
	q.IncAttempts("j1")
	journal, _ = os.ReadFile(path)
	return snapshot, journal
}

// TestOpenQueueQuarantinesCorruptSnapshot: a snapshot that does not
// decode — truncated or bit-flipped — is moved aside to queue.json.corrupt
// and the queue starts empty and usable, where it used to stop the
// daemon. A flip that still decodes loads; either way nothing errors.
func TestOpenQueueQuarantinesCorruptSnapshot(t *testing.T) {
	snapshot, _ := closedQueue(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.json")
	open := func(data []byte) *Queue {
		t.Helper()
		os.Remove(path)
		os.Remove(path + ".corrupt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := OpenQueue(path)
		if err != nil {
			t.Fatalf("OpenQueue(%q): %v", data, err)
		}
		if q.Quarantined != "" {
			moved, _ := os.ReadFile(q.Quarantined)
			if q.Quarantined != path+".corrupt" || !bytes.Equal(moved, data) || len(q.List()) != 0 {
				t.Fatalf("quarantine of %q: moved to %s (%q), %d jobs", data, q.Quarantined, moved, len(q.List()))
			}
		}
		return q
	}

	for cut := 1; cut < len(snapshot)-1; cut++ {
		if q := open(snapshot[:cut]); q.Quarantined == "" {
			t.Fatalf("snapshot truncated to %d bytes loaded %d jobs, want quarantine", cut, len(q.List()))
		}
	}
	if q := open(nil); q.Quarantined != "" || len(q.List()) != 0 {
		t.Fatal("an empty queue file is an empty queue, not a corrupt one")
	}

	for pos := range snapshot {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), snapshot...)
			flipped[pos] ^= 1 << bit
			open(flipped)
		}
	}

	// '{' ^ 1 is 'z': no JSON value starts there.
	flipped := append([]byte(nil), snapshot...)
	flipped[0] ^= 1
	q := open(flipped)
	if q.Quarantined == "" {
		t.Fatal("bit-flipped snapshot was not quarantined")
	}
	j, err := q.Submit(Spec{Experiment: "fig9", Scale: "quick"}, "hq")
	if err != nil {
		t.Fatal(err)
	}
	re, err := OpenQueue(path)
	if err != nil || re.Quarantined != "" {
		t.Fatalf("reopen after quarantine: %v, quarantined %q", err, re.Quarantined)
	}
	if got := re.List(); len(got) != 1 || got[0].ID != j.ID {
		t.Fatalf("queue after quarantine = %+v, want just %s", got, j.ID)
	}
}

// TestOpenQueueDropsTornJournalTail: cutting the journal anywhere
// inside its last delta loses only that transition, silently. The open
// compacts the file to one line, so the torn fragment cannot swallow
// the next append.
func TestOpenQueueDropsTornJournalTail(t *testing.T) {
	snapshot, journal := closedQueue(t)
	path := filepath.Join(t.TempDir(), "queue.json")
	load := func(data []byte) (*Queue, string) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := OpenQueue(path)
		if err != nil {
			t.Fatal(err)
		}
		if q.Quarantined != "" {
			t.Fatalf("OpenQueue(%q) quarantined the file", data)
		}
		return q, listJSON(t, q.List())
	}
	_, want := load(snapshot)
	if _, whole := load(journal); whole == want {
		t.Fatal("the delta changed nothing; the test needs a visible transition")
	}
	for cut := len(snapshot) + 1; cut < len(journal)-1; cut++ {
		q, got := load(journal[:cut])
		if got != want {
			t.Fatalf("journal cut at %d:\n%s\nwant\n%s", cut, got, want)
		}
		if n := countLines(t, path); n != 1 {
			t.Fatalf("journal cut at %d: open left %d lines, want a compacted snapshot", cut, n)
		}
		if _, err := q.Submit(Spec{Experiment: "fig9", Scale: "quick"}, "h9"); err != nil {
			t.Fatal(err)
		}
		re, err := OpenQueue(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(re.List()); n != 4 {
			t.Fatalf("journal cut at %d: the submission after the torn tail was lost (%d jobs)", cut, n)
		}
	}
}

// TestSubmitSkipsIDsInUse: a file whose next_id was damaged (here to
// 1) still loads, and new submissions take unused IDs instead of
// overwriting a stored job.
func TestSubmitSkipsIDsInUse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.json")
	doc := `{"next_id":1,"jobs":[{"id":"j1","hash":"h1","state":"succeeded"},{"id":"j2","hash":"h2","state":"pending"}]}` + "\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := OpenQueue(path)
	if err != nil {
		t.Fatal(err)
	}
	j, err := q.Submit(Spec{Experiment: "fig8", Scale: "quick"}, "h3")
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j3" {
		t.Fatalf("Submit took ID %s, want j3", j.ID)
	}
	if got := q.List(); len(got) != 3 || got[0].Hash != "h1" || got[1].Hash != "h2" || got[2].Hash != "h3" {
		t.Fatalf("List = %+v", got)
	}
}

// TestCloseLeavesCompactQueueAlone: closing a queue whose file already
// is the one-line snapshot, with no transition since the open, leaves
// the file's bytes, inode and mtime as they were; a legacy indented
// snapshot still compacts on Close.
func TestCloseLeavesCompactQueueAlone(t *testing.T) {
	snapshot, _ := closedQueue(t)
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_queue.json"))
	if err != nil {
		t.Fatal(err)
	}
	old := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	for _, c := range []struct {
		name      string
		data      []byte
		rewritten bool
	}{{"compact", snapshot, false}, {"legacy", legacy, true}} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "queue.json")
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(path, old, old); err != nil {
				t.Fatal(err)
			}
			before, _ := os.Stat(path)
			q, err := OpenQueue(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Close(); err != nil {
				t.Fatal(err)
			}
			after, _ := os.Stat(path)
			data, _ := os.ReadFile(path)
			kept := bytes.Equal(data, c.data) && os.SameFile(before, after) && after.ModTime().Equal(old)
			if kept == c.rewritten {
				t.Fatalf("Close rewrote the file: %v, want %v (now %q)", !kept, c.rewritten, data)
			}
			if n := countLines(t, path); n != 1 {
				t.Fatalf("closed queue file has %d lines, want 1", n)
			}
		})
	}
}
