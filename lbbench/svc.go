package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// svcKinds are the run kinds the service mix draws fresh specs from:
// the quick experiments, two self-scheduling policy demos and a fault
// demo. Each is a spec's run-selecting field and its value.
var svcKinds = [][2]string{
	{"experiment", "fig8"}, {"experiment", "fig9"}, {"experiment", "fig10"},
	{"experiment", "fig11"}, {"experiment", "policies"}, {"experiment", "efficiency"},
	{"experiment", "resilience"}, {"experiment", "ext-dynamic"},
	{"policy", "wfactoring"}, {"policy", "twolevel"}, {"faults", "storm"},
}

// submission is one job the client submits.
type submission struct {
	spec []byte
	hit  bool // resubmits an earlier spec, so the cache serves it
}

// The svc-mix traffic is synthetic: no recorded lbsimd usage exists to
// derive it from. Each submission resubmits an already finished spec
// with probability svcHitP, so about half of the jobs are cache hits.
const (
	svcJobs = 200
	svcHitP = 0.5
)

// svcPlan generates a closed-loop sequence of n submissions from seed.
// The first job is fresh, since nothing has finished before it; every
// later one is a resubmission of a random earlier fresh spec with
// probability svcHitP. Fresh specs have distinct random spec seeds in
// 1..1000, and their run kinds come in shuffled rounds of all
// svcKinds, so the fresh work is the same mix of kinds for every seed
// and only the hit draws, spec seeds and order vary.
func svcPlan(seed int64, n int) []submission {
	rng := rand.New(rand.NewSource(seed))
	var kinds [][2]string
	used := map[string]bool{}
	var fresh [][]byte
	plan := make([]submission, 0, n)
	for len(plan) < n {
		if len(fresh) > 0 && rng.Float64() < svcHitP {
			plan = append(plan, submission{spec: fresh[rng.Intn(len(fresh))], hit: true})
			continue
		}
		if len(kinds) == 0 {
			kinds = append(kinds, svcKinds...)
			rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		}
		k := kinds[0]
		kinds = kinds[1:]
		var spec []byte
		for spec == nil || used[string(spec)] {
			s := map[string]any{k[0]: k[1], "scale": "quick", "seed": 1 + rng.Intn(1000), "parallel": 1}
			spec, _ = json.Marshal(s) // a map of strings and ints always encodes
		}
		used[string(spec)] = true
		fresh = append(fresh, spec)
		plan = append(plan, submission{spec: spec})
	}
	return plan
}

// svcWorkload drives lbsimd with one client on one keep-alive
// connection, in a closed loop, on a fresh state directory per rep.
type svcWorkload struct {
	name string
	plan []submission
}

func (w *svcWorkload) Name() string { return w.name }

// profile adds nothing: lbsimd has no profiling hook, so the service's
// per-layer numbers are the client spans every rep records.
func (w *svcWorkload) profile(*harness, float64) repResult { return newRep() }

// daemon is a running lbsimd.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	ready time.Duration // start to the first 200 from /healthz
	start time.Time
	exit  chan error
}

var addrRe = regexp.MustCompile(`listening on (http://\S+)`)

// addrWatcher is lbsimd's stdout: it reports the bound address once.
type addrWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (a *addrWatcher) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.buf.Write(p)
	if m := addrRe.FindSubmatch(a.buf.Bytes()); m != nil && !a.sent {
		a.sent = true
		a.addr <- string(m[1])
	}
	return len(p), nil
}

// startDaemon starts lbsimd over state and returns once /healthz
// answers 200.
func (h *harness) startDaemon(state string, c *http.Client) (*daemon, error) {
	out := &addrWatcher{addr: make(chan string, 1)}
	cmd := h.command(h.lbsimd, "-addr", "127.0.0.1:0", "-state", state, "-parallel", "1")
	cmd.Env = childEnv()
	cmd.Stdout, cmd.Stderr = out, os.Stderr
	d := &daemon{cmd: cmd, start: time.Now(), exit: make(chan error, 1)}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.exit <- cmd.Wait() }()
	select {
	case d.base = <-out.addr:
	case err := <-d.exit:
		return nil, fmt.Errorf("lbsimd exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("lbsimd did not print its address")
	}
	code, body, err := call(c, "GET", d.base+"/healthz", nil)
	if err != nil || code != http.StatusOK {
		d.kill()
		return nil, fmt.Errorf("lbsimd /healthz: %d %s %v", code, body, err)
	}
	d.ready = time.Since(d.start)
	return d, nil
}

// stop drains lbsimd with SIGTERM and waits for it to exit.
func (d *daemon) stop() (procStats, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return procStats{}, err
	}
	select {
	case err := <-d.exit:
		st := statsOf(d.cmd.ProcessState, time.Since(d.start))
		if err != nil {
			return st, fmt.Errorf("lbsimd drain: %w", err)
		}
		return st, nil
	case <-time.After(60 * time.Second):
		d.kill()
		return procStats{}, fmt.Errorf("lbsimd did not drain within 60s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exit
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (w *svcWorkload) warm(h *harness) error {
	state, err := os.MkdirTemp(h.work, "state-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(state)
	c := newClient()
	defer c.CloseIdleConnections()
	d, err := h.startDaemon(state, c)
	if err != nil {
		return err
	}
	_, err = runJob(c, d.base, []byte(`{"experiment":"fig9","scale":"quick","parallel":1}`))
	if _, stopErr := d.stop(); err == nil {
		err = stopErr
	}
	return err
}

// jobRun is the client's view of one job.
type jobRun struct {
	submit, result float64   // seconds spent in POST /jobs and GET .../result
	status         []float64 // seconds of each GET /jobs/{id}
	latency        float64   // submit start to result end
	hash           string
	cacheHit       bool
	body           []byte
}

// pollInterval is the client's wait between status polls.
const pollInterval = 500 * time.Microsecond

// runJob submits spec, polls until the job is terminal and fetches its
// result.
func runJob(c *http.Client, base string, spec []byte) (jobRun, error) {
	var j jobRun
	t0 := time.Now()
	code, body, err := call(c, "POST", base+"/jobs", spec)
	j.submit = time.Since(t0).Seconds()
	if err != nil || code != http.StatusAccepted {
		return j, fmt.Errorf("POST /jobs %s: %d %s %v", spec, code, body, err)
	}
	var view struct {
		ID       string `json:"id"`
		Hash     string `json:"hash"`
		State    string `json:"state"`
		CacheHit bool   `json:"cache_hit"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		return j, fmt.Errorf("POST /jobs: %w", err)
	}
	id := view.ID
	for view.State != "succeeded" && view.State != "failed" && view.State != "canceled" {
		time.Sleep(pollInterval)
		t := time.Now()
		code, body, err = call(c, "GET", base+"/jobs/"+id, nil)
		j.status = append(j.status, time.Since(t).Seconds())
		if err != nil || code != http.StatusOK {
			return j, fmt.Errorf("GET /jobs/%s: %d %s %v", id, code, body, err)
		}
		if err := json.Unmarshal(body, &view); err != nil {
			return j, fmt.Errorf("GET /jobs/%s: %w", id, err)
		}
	}
	if view.State != "succeeded" {
		return j, fmt.Errorf("job %s %s: %s", id, view.State, view.Error)
	}
	t := time.Now()
	code, j.body, err = call(c, "GET", base+"/jobs/"+id+"/result", nil)
	j.result = time.Since(t).Seconds()
	j.latency = time.Since(t0).Seconds()
	if err != nil || code != http.StatusOK {
		return j, fmt.Errorf("GET /jobs/%s/result: %d %v", id, code, err)
	}
	j.hash, j.cacheHit = view.Hash, view.CacheHit
	return j, nil
}

// restarts is how many times each rep restarts lbsimd over its final
// state to time start-up.
const restarts = 3

// rep serves the whole plan on a fresh state directory, then times
// restarts over the state it left.
func (w *svcWorkload) rep(h *harness) repResult {
	r := newRep()
	state, err := os.MkdirTemp(h.work, "state-")
	if err != nil {
		r.ops++
		r.fail("%s: %v", w.name, err)
		return r
	}
	defer os.RemoveAll(state)
	c := newClient()
	defer c.CloseIdleConnections()
	r.ops++
	d, err := h.startDaemon(state, c)
	if err != nil {
		r.fail("%s: %v", w.name, err)
		return r
	}

	var submits, statuses, results, fresh, hit []float64
	first := map[string][]byte{}
	polls, cacheHits, plannedHits := 0, 0, 0
	t0 := time.Now()
	for i, s := range w.plan {
		r.ops++
		j, err := runJob(c, d.base, s.spec)
		if err != nil {
			r.fail("%s: job %d: %v", w.name, i, err)
			continue
		}
		submits = append(submits, j.submit)
		statuses = append(statuses, j.status...)
		results = append(results, j.result)
		polls += len(j.status)
		if s.hit {
			plannedHits++
			hit = append(hit, j.latency)
		} else {
			fresh = append(fresh, j.latency)
		}
		if j.cacheHit {
			cacheHits++
		}
		if j.cacheHit != s.hit {
			r.fail("%s: job %d: cache_hit %v, planned %v", w.name, i, j.cacheHit, s.hit)
		}
		if prev, ok := first[j.hash]; !ok {
			first[j.hash] = j.body
		} else if !bytes.Equal(prev, j.body) {
			r.fail("%s: job %d: result differs from the first result for %s", w.name, i, j.hash)
		}
	}
	r.samples["wall_s"] = time.Since(t0).Seconds()
	if cacheHits != plannedHits {
		r.fail("%s: %d cache hits, planned %d", w.name, cacheHits, plannedHits)
	}

	c.CloseIdleConnections()
	st, err := d.stop()
	if err != nil {
		r.fail("%s: %v", w.name, err)
	}
	r.samples["cpu_s"] = st.cpu
	r.samples["peak_rss_mb"] = st.rssMiB
	r.samples["jobs.submit_p50_s"] = median(submits)
	r.samples["jobs.status_p50_s"] = median(statuses)
	r.samples["jobs.result_p50_s"] = median(results)
	r.samples["jobs.polls_per_job"] = float64(polls) / float64(len(w.plan))
	r.samples["jobs.fresh_p50_s"] = percentile(fresh, 50)
	r.samples["jobs.fresh_p90_s"] = percentile(fresh, 90)
	r.samples["jobs.hit_p50_s"] = percentile(hit, 50)
	r.samples["jobs.hit_p90_s"] = percentile(hit, 90)
	r.exact["jobs.cache_hits"] = float64(cacheHits)
	r.exact["jobs.queue_bytes"] = float64(fileSize(filepath.Join(state, "queue.json")))
	r.exact["jobs.cache_bytes"] = float64(treeSize(filepath.Join(state, "cache")))

	for i := 0; i < restarts; i++ {
		r.ops++
		d, err := h.startDaemon(state, c)
		if err != nil {
			r.fail("%s: restart: %v", w.name, err)
			continue
		}
		r.setup = append(r.setup, d.ready.Seconds())
		c.CloseIdleConnections()
		if _, err := d.stop(); err != nil {
			r.fail("%s: restart: %v", w.name, err)
		}
	}
	return r
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func treeSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
