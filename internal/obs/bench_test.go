package obs_test

import (
	"bytes"
	"io"
	"testing"

	"ompsscluster/internal/obs"
	"ompsscluster/internal/simtime"
)

// BenchmarkWriteChrome exports the all-kinds run's trace; bytes/s is
// the trace throughput and allocs/op stays O(tracks).
func BenchmarkWriteChrome(b *testing.B) {
	ob := allKindsRun(b, -1)
	var buf bytes.Buffer
	if err := obs.WriteChrome(&buf, []*obs.Recorder{ob}, []string{"tiny"}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.WriteChrome(io.Discard, []*obs.Recorder{ob}, []string{"tiny"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecorderEmit measures one retained emit into a ring that
// fills and then wraps, including the busy-timeline sample each exec
// event appends; chunk and series growth amortize to zero allocations
// per event. The timelines keep every sample, so a fresh recorder
// replaces the full one every 1<<20 events to bound their memory.
func BenchmarkRecorderEmit(b *testing.B) {
	var now simtime.Time
	var r *obs.Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(1<<20-1) == 0 {
			r = obs.NewRecorder(1 << 16)
			r.BindClock(func() simtime.Time { return now })
		}
		now++
		r.ExecStart(i&3, 0, int64(i), i&7, false, "work")
	}
}
