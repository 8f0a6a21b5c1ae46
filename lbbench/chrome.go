package main

import (
	"encoding/json"
	"fmt"
	"io"
)

type chromeEvent struct {
	Ph  string  `json:"ph"`
	Pid int     `json:"pid"`
	Tid int     `json:"tid"`
	Ts  float64 `json:"ts"`
	Dur float64 `json:"dur"`
	Cat string  `json:"cat"`
	ID  string  `json:"id"`
}

// validateChrome checks the structural invariants of a Chrome/Perfetto
// trace that lbsim's exporter promises (the same checks as the
// program's obs.ValidateChrome): every event has a known phase,
// timestamps never decrease within a (pid, tid) track, B/E slices
// balance per track, and async b/e spans balance per (cat, id). It
// streams the event array, so memory stays flat for traces of hundreds
// of megabytes. It returns the number of events read.
func validateChrome(r io.Reader) (int, error) {
	dec := json.NewDecoder(r)
	if err := expectDelim(dec, '{'); err != nil {
		return 0, err
	}
	type track struct{ pid, tid int }
	lastTs := map[track]float64{}
	depth := map[track]int{}
	asyncOpen := map[string]int{}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return n, fmt.Errorf("chrome trace: %w", err)
		}
		if tok != "traceEvents" {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return n, fmt.Errorf("chrome trace: field %v: %w", tok, err)
			}
			continue
		}
		if err := expectDelim(dec, '['); err != nil {
			return n, err
		}
		for ; dec.More(); n++ {
			var e chromeEvent
			if err := dec.Decode(&e); err != nil {
				return n, fmt.Errorf("chrome trace: event %d: %w", n, err)
			}
			switch e.Ph {
			case "M":
				continue
			case "B", "E", "X", "i", "b", "e", "C":
			default:
				return n, fmt.Errorf("chrome trace: event %d: unknown phase %q", n, e.Ph)
			}
			k := track{e.Pid, e.Tid}
			if last, ok := lastTs[k]; ok && e.Ts < last {
				return n, fmt.Errorf("chrome trace: event %d: ts %v before %v on pid=%d tid=%d", n, e.Ts, last, e.Pid, e.Tid)
			}
			lastTs[k] = e.Ts
			switch e.Ph {
			case "B":
				depth[k]++
			case "E":
				if depth[k]--; depth[k] < 0 {
					return n, fmt.Errorf("chrome trace: event %d: E without B on pid=%d tid=%d", n, e.Pid, e.Tid)
				}
			case "b":
				asyncOpen[e.Cat+"/"+e.ID]++
			case "e":
				key := e.Cat + "/" + e.ID
				if asyncOpen[key]--; asyncOpen[key] < 0 {
					return n, fmt.Errorf("chrome trace: event %d: async e without b for %s", n, key)
				}
			case "X":
				if e.Dur < 0 {
					return n, fmt.Errorf("chrome trace: event %d: negative duration %v", n, e.Dur)
				}
			}
		}
		if err := expectDelim(dec, ']'); err != nil {
			return n, err
		}
	}
	if err := expectDelim(dec, '}'); err != nil {
		return n, err
	}
	if n == 0 {
		return 0, fmt.Errorf("chrome trace: no events")
	}
	for k, d := range depth {
		if d != 0 {
			return n, fmt.Errorf("chrome trace: unbalanced B/E (depth %d) on pid=%d tid=%d", d, k.pid, k.tid)
		}
	}
	for id, d := range asyncOpen {
		if d != 0 {
			return n, fmt.Errorf("chrome trace: unbalanced async span %s (depth %d)", id, d)
		}
	}
	return n, nil
}

func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if tok != want {
		return fmt.Errorf("chrome trace: got %v, want %v", tok, want)
	}
	return nil
}
