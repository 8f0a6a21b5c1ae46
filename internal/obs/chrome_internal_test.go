package obs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"testing"

	"ompsscluster/internal/simtime"
)

// FuzzChromeNumbers checks the exporter's number formatting against the
// formatting it replaced: appendTs against FormatFloat(ns/1e3,'f',3)
// for any int64, and appendG against fmt's %g for any float64 bit
// pattern (NaN and ±Inf included).
func FuzzChromeNumbers(f *testing.F) {
	for _, ns := range []int64{0, 1, -1, 999, -999, 1000, -1000, 123456789,
		maxExactTs - 1, maxExactTs, -maxExactTs + 1, -maxExactTs, 1 << 53,
		math.MaxInt64, math.MinInt64} {
		f.Add(ns, math.Float64bits(1.25))
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 0.1, 1.0 / 3, 1e21, 1e-7,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(int64(0), math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, ns int64, bits uint64) {
		want := strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64)
		if got := string(appendTs(nil, ns)); got != want {
			t.Fatalf("appendTs(%d) = %q, want %q", ns, got, want)
		}
		v := math.Float64frombits(bits)
		if got, want := string(appendG(nil, v)), fmt.Sprintf("%g", v); got != want {
			t.Fatalf("appendG(%v) = %q, want %q", v, got, want)
		}
	})
}

// ringEvent is the i-th event of a synthetic stream cycling through
// paired kinds, so a wrapped ring cuts some pairs in half.
func ringEvent(i int) Event {
	id := int64(i / 4)
	e := Event{T: simtime.Time(i*1000 + 7), Node: int32(id % 3), Apprank: 0, ID: id, A: int64(i % 5), B: 1, C: 2, D: 64}
	e.Kind = [...]Kind{KindExecStart, KindMsgPost, KindExecEnd, KindMsgMatch}[i%4]
	return e
}

// TestRingMatchesReference drives rings around the chunk size with 3×
// their capacity and checks Events, Dropped and the Chrome export
// against a reference: the newest capacity events of the full stream.
func TestRingMatchesReference(t *testing.T) {
	for _, capacity := range []int{chunkSize - 1, chunkSize, chunkSize + 5} {
		t.Run(strconv.Itoa(capacity), func(t *testing.T) {
			r := NewRecorder(capacity)
			var all []Event
			for i := 0; i < 3*capacity; i++ {
				e := ringEvent(i)
				all = append(all, e)
				r.emitStamped(e)
				if i == capacity/2 || i == capacity || i == 2*capacity+7 {
					checkRing(t, r, all, capacity)
				}
			}
			checkRing(t, r, all, capacity)
		})
	}
}

func checkRing(t *testing.T, r *Recorder, all []Event, capacity int) {
	t.Helper()
	want := all[max(0, len(all)-capacity):]
	got := r.Events()
	if len(got) != len(want) {
		t.Fatalf("after %d emits: %d events retained, want %d", len(all), len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after %d emits: event %d = %+v, want %+v", len(all), i, got[i], want[i])
		}
	}
	if d, wantD := r.Dropped(), uint64(len(all)-len(want)); d != wantD {
		t.Fatalf("after %d emits: Dropped %d, want %d", len(all), d, wantD)
	}
	// The reference recorder holds exactly the expected events unwrapped.
	ref := NewRecorder(len(want))
	for _, e := range want {
		ref.emitStamped(e)
	}
	var a, b bytes.Buffer
	if err := WriteChrome(&a, []*Recorder{r}, []string{"ring"}); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, []*Recorder{ref}, []string{"ring"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("after %d emits: Chrome export of the ring differs from the reference", len(all))
	}
}

// TestSmallRingAllocatesCapacity: a ring below one chunk allocates only
// its capacity.
func TestSmallRingAllocatesCapacity(t *testing.T) {
	r := NewRecorder(10)
	for i := 0; i < 25; i++ {
		r.emitStamped(ringEvent(i))
	}
	if len(r.chunks) != 1 || cap(r.chunks[0]) != 10 {
		t.Fatalf("chunks %d, first chunk cap %d; want one chunk of 10", len(r.chunks), cap(r.chunks[0]))
	}
}

var (
	errFirst = errors.New("first write error")
	errLater = errors.New("later write error")
)

// failAfter accepts limit bytes, then fails: the first failing Write
// returns errFirst, any later one errLater.
type failAfter struct {
	limit  int
	buf    bytes.Buffer
	failed bool
	calls  int // Write calls after the first failure
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.failed {
		f.calls++
		return 0, errLater
	}
	if room := f.limit - f.buf.Len(); len(p) > room {
		f.buf.Write(p[:room])
		f.failed = true
		return room, errFirst
	}
	return f.buf.Write(p)
}

// TestWriteChromeStickyError: the export returns the first write error
// and writes nothing after it, wherever the failure lands.
func TestWriteChromeStickyError(t *testing.T) {
	r := NewRecorder(-1)
	for i := 0; i < 8*chunkSize; i++ {
		r.emitStamped(ringEvent(i))
	}
	var full bytes.Buffer
	if err := WriteChrome(&full, []*Recorder{r}, nil); err != nil {
		t.Fatal(err)
	}
	if full.Len() < 3*chromeBufSize {
		t.Fatalf("export is %d bytes; want several buffer flushes", full.Len())
	}
	for _, limit := range []int{0, 1, chromeBufSize, chromeBufSize + 100, full.Len() - 1} {
		w := &failAfter{limit: limit}
		err := WriteChrome(w, []*Recorder{r}, nil)
		if !errors.Is(err, errFirst) {
			t.Fatalf("limit %d: error %v, want the first write error", limit, err)
		}
		if w.calls != 0 {
			t.Fatalf("limit %d: %d writes after the failure", limit, w.calls)
		}
		if !bytes.Equal(w.buf.Bytes(), full.Bytes()[:limit]) {
			t.Fatalf("limit %d: accepted bytes are not a prefix of the export", limit)
		}
	}
}
