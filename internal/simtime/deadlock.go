package simtime

import (
	"fmt"
	"strings"
)

// BlockedProc describes one process left blocked after the event queue
// drained: its name plus the block reason recorded by SetBlockReason
// (empty What when the blocking site did not annotate itself).
type BlockedProc struct {
	Name string
	What string
	A, B int64
}

func (b BlockedProc) String() string {
	if b.What == "" {
		return b.Name
	}
	return fmt.Sprintf("%s (%s a=%d b=%d)", b.Name, b.What, b.A, b.B)
}

// DeadlockError is the typed error for a simulation that drained its
// event queue while processes were still blocked — for example a Recv
// whose sender was killed by a fault, or a collective missing a crashed
// participant. It carries the virtual time of the drain and a
// diagnostic dump of every blocked process in spawn order, so error
// paths are as deterministic as the happy path.
type DeadlockError struct {
	Now     Time
	Blocked []BlockedProc
}

func (d *DeadlockError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "simtime: deadlock at t=%v: %d process(es) blocked forever:", d.Now, len(d.Blocked))
	for _, b := range d.Blocked {
		sb.WriteString("\n  - ")
		sb.WriteString(b.String())
	}
	return sb.String()
}

// Deadlock returns a DeadlockError describing the currently live
// (blocked) processes, or nil if none are live. Call it after Run
// drains the queue; a non-nil result means the simulated program can
// never make progress again.
func (e *Env) Deadlock() *DeadlockError {
	live := e.liveByID()
	if len(live) == 0 {
		return nil
	}
	d := &DeadlockError{Now: e.now, Blocked: make([]BlockedProc, len(live))}
	for i, p := range live {
		d.Blocked[i] = BlockedProc{Name: p.name, What: p.blockWhat, A: p.blockA, B: p.blockB}
	}
	return d
}
