package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// writeFileAtomic writes data to path via a temp file in the same
// directory plus a rename, so readers (and a process killed mid-write)
// only ever observe the old complete file or the new complete file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// lineLog appends whole lines to a file, each with a single write(2),
// so a process killed mid-append tears at most the last line. The
// first append creates the file and its directory; a closed log
// reopens on the next append.
type lineLog struct {
	path string
	f    *os.File
}

func (l *lineLog) append(line []byte) error {
	if l.f == nil {
		if err := os.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
			return err
		}
		f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			return err
		}
		l.f = f
	}
	_, err := l.f.Write(line)
	return err
}

func (l *lineLog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Checkpointer logs the per-spec outcomes of a running sweep. It is
// keyed by the job's content address, so a canceled or killed job's
// partial work survives and any later job with the same spec — the
// resumed job after a restart, or a fresh submission — picks it up.
//
// The file is an append-only log with one checkpointRecord line per
// completed spec, each appended with a single write(2). Completions are
// not rare: one round of the quick figures and demos records 250 specs,
// and a quick fig8 job records 70 specs in about 0.25 s, so rewriting a
// whole snapshot per spec (O(n²) bytes per job) cost 297 KB per round
// where the log writes about 20 KB. A SIGKILL mid-write can tear only
// the last line, which OpenCheckpoint skips.
//
// Correctness never depends on the checkpoint — only resume speed
// does. Unreadable or corrupt lines are skipped and the job simply
// recomputes their specs.
type Checkpointer struct {
	mu   sync.Mutex
	done map[int]string
	log  lineLog
	// torn is set when the file ends inside a line: the next append
	// starts with a newline, so the torn fragment stays on its own
	// (skipped) line.
	torn bool
}

// checkpointRecord is one log line: a completed global spec index and
// its exact outcome encoding. Encodings are produced by the experiments
// package's spec codecs and are always UTF-8 text (hex floats, decimal
// ints, JSON), so they round-trip through JSON strings byte-for-byte.
// Both fields are pointers so a line missing either one is rejected.
type checkpointRecord struct {
	I *int    `json:"i"`
	E *string `json:"e"`
}

// OpenCheckpoint loads the log at path, or starts empty if the file is
// missing or unreadable. Lines that do not parse as records are skipped
// (a torn last line, or the single-snapshot format of earlier versions,
// whose specs are then recomputed); when an index appears twice the
// last line wins.
func OpenCheckpoint(path string) *Checkpointer {
	c := &Checkpointer{done: map[int]string{}, log: lineLog{path: path}}
	data, err := os.ReadFile(path)
	if err != nil {
		return c
	}
	c.torn = len(data) > 0 && data[len(data)-1] != '\n'
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		var r checkpointRecord
		if json.Unmarshal(line, &r) != nil || r.I == nil || r.E == nil || *r.I < 0 {
			continue
		}
		c.done[*r.I] = *r.E
	}
	return c
}

// Cached returns the recorded encoding of a global spec index. It has
// the signature experiments.JobHooks.Cached wants.
func (c *Checkpointer) Cached(idx int) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	enc, ok := c.done[idx]
	if !ok {
		return nil, false
	}
	return []byte(enc), true
}

// Record stores a completed spec's encoding and appends it to the log.
// Called concurrently from sweep workers. The sweep also reports specs
// it served from the checkpoint, so an outcome already recorded with
// the same encoding is not appended again. A write error is swallowed:
// the outcome stays recorded in memory (so the running job is
// unaffected) and only resume coverage is lost.
func (c *Checkpointer) Record(idx int, enc []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.done[idx]; ok && prev == string(enc) {
		return
	}
	e := string(enc)
	c.done[idx] = e
	line, err := json.Marshal(checkpointRecord{I: &idx, E: &e})
	if err != nil {
		return
	}
	if c.torn {
		line = append([]byte{'\n'}, line...)
	}
	if c.log.append(append(line, '\n')) == nil {
		c.torn = false
	}
}

// Len reports how many spec outcomes are recorded — the job's live
// progress counter.
func (c *Checkpointer) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Indices returns the recorded spec indices in ascending order.
func (c *Checkpointer) Indices() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.done))
	for idx := range c.done {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// Close releases the log's file handle. The recorded outcomes stay
// readable through Cached, and a later Record reopens the log.
func (c *Checkpointer) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.close()
}

// Remove closes and deletes the log (after the job's result is cached
// the checkpoint is redundant).
func (c *Checkpointer) Remove() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.log.close()
	err := os.Remove(c.log.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}
