package obs

// ReplayTimelines rebuilds r's timelines on a fresh recorder by feeding
// its retained ring through the update the live emits use.
func ReplayTimelines(r *Recorder) *Recorder {
	fresh := NewRecorder(0)
	for i := 0; i < r.retained(); i++ {
		fresh.track(r.at(i))
	}
	return fresh
}
