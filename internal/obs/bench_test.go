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
// fills and then wraps; chunk allocation amortizes to zero per event.
func BenchmarkRecorderEmit(b *testing.B) {
	r := obs.NewRecorder(1 << 16)
	var now simtime.Time
	r.BindClock(func() simtime.Time { return now })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		r.ExecStart(i&3, 0, int64(i), i&7, false, "work")
	}
}
