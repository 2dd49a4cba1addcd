package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
)

// testDaemon starts a daemon on an ephemeral port over a fresh data
// directory and tears it down with the test.
func testDaemon(t *testing.T, mutate func(*Config)) (*Daemon, string) {
	t.Helper()
	cfg := Config{
		DataDir:      t.TempDir(),
		Addr:         "127.0.0.1:0",
		Workers:      2,
		QueueDepth:   8,
		DrainTimeout: 30 * time.Second,
		Logf:         t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { d.Shutdown(context.Background()) })
	return d, "http://" + d.Addr()
}

func submitJob(t *testing.T, base string, spec JobSpec) *Job {
	t.Helper()
	j, status := trySubmit(t, base, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, job %+v", status, j)
	}
	return j
}

func trySubmit(t *testing.T, base string, spec JobSpec) (*Job, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return &j, resp.StatusCode
}

func getJob(t *testing.T, base, id string) *Job {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return &j
}

func waitState(t *testing.T, base, id string, want func(JobState) bool, timeout time.Duration) *Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		j := getJob(t, base, id)
		if want(j.State) {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	j := getJob(t, base, id)
	t.Fatalf("job %s stuck in state %s (error %q)", id, j.State, j.Error)
	return nil
}

func fetchEvents(t *testing.T, base, id string, after int) []Event {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", base, id, after))
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events %s: status %d", id, resp.StatusCode)
	}
	var out []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		out = append(out, e)
	}
	return out
}

// roundHashes extracts the (round → hash) trace from an event stream.
func roundHashes(events []Event) map[int]string {
	m := make(map[int]string)
	for _, e := range events {
		if e.Type == "round" {
			m[e.Round] = e.Hash
		}
	}
	return m
}

func TestSubmitRunsToDone(t *testing.T) {
	_, base := testDaemon(t, nil)
	j := submitJob(t, base, JobSpec{Family: "gnp:64:0.08", Seed: 11, CheckpointEvery: 8})
	final := waitState(t, base, j.ID, JobState.Terminal, 30*time.Second)
	if final.State != JobDone {
		t.Fatalf("state %s (error %q), want done", final.State, final.Error)
	}
	if !final.Stabilized || final.MISSize == 0 || final.Rounds == 0 {
		t.Fatalf("implausible outcome: %+v", final)
	}
	events := fetchEvents(t, base, j.ID, 0)
	if len(events) != final.Rounds+1 {
		t.Fatalf("got %d events for %d rounds", len(events), final.Rounds)
	}
	for i, e := range events[:len(events)-1] {
		if e.Type != "round" || e.Round != i+1 || len(e.Hash) != 16 {
			t.Fatalf("event %d malformed: %+v", i, e)
		}
		if e.Active < 0 || e.Active > 64 || e.FrontierWords < 0 || e.FrontierWords > 1 {
			t.Fatalf("event %d activity out of range for n=64: %+v", i, e)
		}
	}
	// Round 1 always processes the full randomized configuration.
	if events[0].Active == 0 || events[0].FrontierWords == 0 {
		t.Fatalf("first round reports no activity: %+v", events[0])
	}
	done := events[len(events)-1]
	if done.Type != "done" || done.State != JobDone || done.ID != final.Rounds+1 {
		t.Fatalf("bad done event: %+v", done)
	}
}

func TestSpecRejectedWith400(t *testing.T) {
	_, base := testDaemon(t, nil)
	for _, spec := range []JobSpec{
		{Seed: 1},                                        // no family
		{Family: "gnp:64:0.08", Alg: "nope"},             // unknown protocol
		{Family: "gnp:64:0.08", Noise: 1.5},              // bad noise
		{Family: "gnp:64:0.08", Rounds: 5, MaxRounds: 5}, // exclusive modes
	} {
		if _, status := trySubmit(t, base, spec); status != http.StatusBadRequest {
			t.Fatalf("spec %+v: status %d, want 400", spec, status)
		}
	}
	// A bad family fails the JOB (resolution is lazy), not the submit.
	j := submitJob(t, base, JobSpec{Family: "gnp:notanumber:0.1", Seed: 1})
	final := waitState(t, base, j.ID, JobState.Terminal, 10*time.Second)
	if final.State != JobFailed || final.Error == "" {
		t.Fatalf("bad family: state %s error %q, want failed with diagnostic", final.State, final.Error)
	}
}

// TestQueueSaturation exercises admission control: with one worker and
// a queue of two, the third concurrent submission bounces with 429 and
// a Retry-After hint — and the running job is not perturbed (it
// completes with the same per-round trace as an unloaded run).
func TestQueueSaturation(t *testing.T) {
	refSpec := JobSpec{Family: "gnp:48:0.1", Seed: 7, Rounds: 400, CheckpointEvery: 16}

	_, refBase := testDaemon(t, nil)
	ref := submitJob(t, refBase, refSpec)
	refFinal := waitState(t, refBase, ref.ID, JobState.Terminal, 30*time.Second)
	refTrace := roundHashes(fetchEvents(t, refBase, ref.ID, 0))

	_, base := testDaemon(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 2
	})
	// Occupy the single worker with a paced job, then fill the queue.
	slow := JobSpec{Family: "gnp:48:0.1", Seed: 7, Rounds: 400, CheckpointEvery: 16, RoundDelayMS: 2}
	running := submitJob(t, base, slow)
	waitState(t, base, running.ID, func(s JobState) bool { return s == JobRunning }, 10*time.Second)
	q1 := submitJob(t, base, slow)
	q2 := submitJob(t, base, slow)

	body, _ := json.Marshal(slow)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("429 without Retry-After")
	}

	// The in-flight job finishes unperturbed and bit-exact.
	final := waitState(t, base, running.ID, JobState.Terminal, 60*time.Second)
	if final.State != JobDone {
		t.Fatalf("running job perturbed: state %s error %q", final.State, final.Error)
	}
	if final.Rounds != refFinal.Rounds {
		t.Fatalf("rounds %d != reference %d", final.Rounds, refFinal.Rounds)
	}
	gotTrace := roundHashes(fetchEvents(t, base, running.ID, 0))
	if len(gotTrace) != len(refTrace) {
		t.Fatalf("trace length %d != reference %d", len(gotTrace), len(refTrace))
	}
	for r, h := range refTrace {
		if gotTrace[r] != h {
			t.Fatalf("round %d hash %s != reference %s under load", r, gotTrace[r], h)
		}
	}
	// Freed slots drain the queue.
	waitState(t, base, q1.ID, JobState.Terminal, 60*time.Second)
	waitState(t, base, q2.ID, JobState.Terminal, 60*time.Second)
}

func TestTenantQueueBound(t *testing.T) {
	_, base := testDaemon(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 8
		c.TenantQueueDepth = 1
	})
	slow := JobSpec{Family: "gnp:32:0.15", Seed: 3, Rounds: 2000, RoundDelayMS: 2, Tenant: "greedy"}
	running := submitJob(t, base, slow)
	waitState(t, base, running.ID, func(s JobState) bool { return s == JobRunning }, 10*time.Second)
	submitJob(t, base, slow) // fills greedy's quota of 1
	if _, status := trySubmit(t, base, slow); status != http.StatusTooManyRequests {
		t.Fatalf("tenant over quota: status %d, want 429", status)
	}
	other := slow
	other.Tenant = "polite"
	if _, status := trySubmit(t, base, other); status != http.StatusAccepted {
		t.Fatalf("other tenant rejected: status %d", status)
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	_, base := testDaemon(t, func(c *Config) { c.Workers = 1 })
	slow := JobSpec{Family: "gnp:32:0.15", Seed: 5, Rounds: 5000, RoundDelayMS: 2, CheckpointEvery: 8}
	running := submitJob(t, base, slow)
	waitState(t, base, running.ID, func(s JobState) bool { return s == JobRunning }, 10*time.Second)
	queued := submitJob(t, base, slow)

	// Cancel the pending job: immediate, never runs.
	resp, err := http.Post(base+"/v1/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel pending: status %d", resp.StatusCode)
	}
	if j := getJob(t, base, queued.ID); j.State != JobCanceled {
		t.Fatalf("pending job state %s, want canceled", j.State)
	}

	// Cancel the running job: cooperative, checkpoints first.
	resp, err = http.Post(base+"/v1/jobs/"+running.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	final := waitState(t, base, running.ID, JobState.Terminal, 10*time.Second)
	if final.State != JobCanceled {
		t.Fatalf("running job state %s, want canceled", final.State)
	}
	// A second cancel is a 409.
	resp, err = http.Post(base+"/v1/jobs/"+running.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: status %d, want 409", resp.StatusCode)
	}
	// The canceled job's stream ends with a done event naming the state.
	events := fetchEvents(t, base, running.ID, 0)
	if len(events) == 0 || events[len(events)-1].Type != "done" || events[len(events)-1].State != JobCanceled {
		t.Fatalf("canceled job stream does not end in canceled done event")
	}
}

// TestDrainInterruptsAndResumes is the graceful half of the crash
// story: SIGTERM-style Shutdown checkpoints the in-flight job and parks
// it interrupted; a new daemon over the same directory resumes it to a
// trace bit-identical to an uninterrupted reference run.
func TestDrainInterruptsAndResumes(t *testing.T) {
	spec := JobSpec{Family: "gnp:48:0.1", Seed: 9, Rounds: 600, CheckpointEvery: 8}

	_, refBase := testDaemon(t, nil)
	ref := submitJob(t, refBase, spec)
	refFinal := waitState(t, refBase, ref.ID, JobState.Terminal, 30*time.Second)
	refEvents := fetchEvents(t, refBase, ref.ID, 0)
	refTrace := roundHashes(refEvents)

	// Durability observability: the job record carries cumulative
	// checkpoint bytes, the round events carry per-checkpoint kind,
	// size and duration, and the daemon's healthz totals them.
	if refFinal.Checkpoints == 0 || refFinal.CheckpointBytes <= 0 {
		t.Fatalf("reference job reports checkpoints=%d bytes=%d", refFinal.Checkpoints, refFinal.CheckpointBytes)
	}
	ckptEvents, sawBase := 0, false
	for _, e := range refEvents {
		if e.CkptKind == "" {
			continue
		}
		ckptEvents++
		if e.CkptKind == "base" {
			sawBase = true
		}
		if e.CkptBytes <= 0 || e.CkptNS <= 0 {
			t.Fatalf("checkpoint event %+v missing bytes or duration", e)
		}
	}
	if ckptEvents == 0 || !sawBase {
		t.Fatalf("round events carry %d checkpoint annotations (base seen: %v)", ckptEvents, sawBase)
	}
	var health struct {
		CheckpointBytes int64 `json:"checkpointBytes"`
	}
	resp, err := http.Get(refBase + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	resp.Body.Close()
	if health.CheckpointBytes < refFinal.CheckpointBytes {
		t.Fatalf("healthz checkpointBytes %d < job's %d", health.CheckpointBytes, refFinal.CheckpointBytes)
	}

	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1, DrainTimeout: 30 * time.Second, Logf: t.Logf}
	d1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := d1.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + d1.Addr()
	paced := spec
	paced.RoundDelayMS = 2 // slow enough to catch mid-run
	j := submitJob(t, base, paced)
	waitState(t, base, j.ID, func(s JobState) bool { return s == JobRunning }, 10*time.Second)
	time.Sleep(100 * time.Millisecond) // let some rounds accumulate
	if err := d1.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	onDisk, err := st.LoadJob(j.ID)
	if err != nil {
		t.Fatalf("LoadJob: %v", err)
	}
	if onDisk.State != JobInterrupted {
		t.Fatalf("drained job state %s, want interrupted", onDisk.State)
	}
	cp, _, err := ckpt.Load(st.CheckpointPath(j.ID))
	if err != nil {
		t.Fatalf("drain checkpoint invalid: %v", err)
	}
	if cp.Round == 0 || cp.Round >= 600 {
		t.Fatalf("drain checkpoint at round %d, want mid-run", cp.Round)
	}

	// Second life: recovery re-queues and resumes.
	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("New (resume): %v", err)
	}
	if err := d2.Start(); err != nil {
		t.Fatalf("Start (resume): %v", err)
	}
	defer d2.Shutdown(context.Background())
	base2 := "http://" + d2.Addr()
	final := waitState(t, base2, j.ID, JobState.Terminal, 60*time.Second)
	if final.State != JobDone {
		t.Fatalf("resumed job state %s (error %q)", final.State, final.Error)
	}
	if !final.Resumed {
		t.Fatalf("resumed job does not report Resumed")
	}
	if final.Rounds != refFinal.Rounds {
		t.Fatalf("resumed rounds %d != reference %d", final.Rounds, refFinal.Rounds)
	}
	gotTrace := roundHashes(fetchEvents(t, base2, j.ID, 0))
	if len(gotTrace) != len(refTrace) {
		t.Fatalf("resumed trace has %d rounds, reference %d", len(gotTrace), len(refTrace))
	}
	for r, h := range refTrace {
		if gotTrace[r] != h {
			t.Fatalf("round %d: resumed hash %s != reference %s", r, gotTrace[r], h)
		}
	}
}

// TestRecoveryRejectsTamperedCheckpoint is the integrity half: a
// checkpoint corrupted on disk moves the job to failed with the
// validation diagnostic — the daemon neither crashes nor resumes from
// unverifiable state, and keeps serving other jobs.
func TestRecoveryRejectsTamperedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1, DrainTimeout: 30 * time.Second, Logf: t.Logf}
	d1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := d1.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + d1.Addr()
	j := submitJob(t, base, JobSpec{Family: "gnp:48:0.1", Seed: 13, Rounds: 2000, RoundDelayMS: 2, CheckpointEvery: 8})
	waitState(t, base, j.ID, func(s JobState) bool { return s == JobRunning }, 10*time.Second)
	time.Sleep(100 * time.Millisecond)
	if err := d1.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	st, _ := OpenStore(dir)
	cpPath := st.CheckpointPath(j.ID)
	data, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	data[len(data)/2] ^= 0xff // flip a byte mid-payload
	if err := os.WriteFile(cpPath, data, 0o644); err != nil {
		t.Fatalf("tamper: %v", err)
	}

	d2, err := New(cfg)
	if err != nil {
		t.Fatalf("New over tampered store: %v", err)
	}
	if err := d2.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer d2.Shutdown(context.Background())
	base2 := "http://" + d2.Addr()

	failed := getJob(t, base2, j.ID)
	if failed.State != JobFailed {
		t.Fatalf("tampered job state %s, want failed", failed.State)
	}
	if !strings.Contains(failed.Error, "checkpoint rejected") {
		t.Fatalf("tampered job diagnostic %q lacks checkpoint rejection", failed.Error)
	}

	// The daemon still serves: a fresh job completes.
	ok := submitJob(t, base2, JobSpec{Family: "gnp:32:0.15", Seed: 2, CheckpointEvery: 8})
	final := waitState(t, base2, ok.ID, JobState.Terminal, 30*time.Second)
	if final.State != JobDone {
		t.Fatalf("fresh job after tampered recovery: state %s error %q", final.State, final.Error)
	}
}

// TestRecoveryQuarantinesTornJobRecord: a half-written job.json (torn
// write simulation) is quarantined with a diagnostic instead of
// crashing the daemon.
func TestRecoveryQuarantinesTornJobRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	jdir := st.JobDir("j000001")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jdir+"/job.json", []byte(`{"id":"j000001","sta`), 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := New(Config{DataDir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New over torn record: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer d.Shutdown(context.Background())
	j, ok := d.Get("j000001")
	if !ok || j.State != JobFailed || !strings.Contains(j.Error, "recovery") {
		t.Fatalf("torn record: got %+v", j)
	}
	if _, err := os.Stat(jdir + "/job.json.bad"); err != nil {
		t.Fatalf("torn record not quarantined: %v", err)
	}
}

// TestEventStreamResume verifies Last-Event-ID / ?after semantics on
// both framings: a reconnect after N sees exactly the events past N.
func TestEventStreamResume(t *testing.T) {
	_, base := testDaemon(t, nil)
	j := submitJob(t, base, JobSpec{Family: "gnp:48:0.1", Seed: 21, Rounds: 120, CheckpointEvery: 8})
	final := waitState(t, base, j.ID, JobState.Terminal, 30*time.Second)
	if final.State != JobDone {
		t.Fatalf("state %s", final.State)
	}

	all := fetchEvents(t, base, j.ID, 0)
	if len(all) != 121 { // 120 rounds + done
		t.Fatalf("got %d events, want 121", len(all))
	}
	tail := fetchEvents(t, base, j.ID, 100)
	if len(tail) != 21 || tail[0].ID != 101 {
		t.Fatalf("after=100: got %d events starting at %d", len(tail), tail[0].ID)
	}

	// Last-Event-ID header (SSE-style resume) on the NDJSON framing.
	req, _ := http.NewRequest("GET", base+"/v1/jobs/"+j.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "118")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 { // rounds 119, 120, done(121)
		t.Fatalf("Last-Event-ID=118: %d lines: %q", len(lines), string(body))
	}

	// SSE framing carries id: and event: fields.
	req, _ = http.NewRequest("GET", base+"/v1/jobs/"+j.ID+"/events?after=119", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET SSE: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	sse, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(sse), "id: 120\n") || !strings.Contains(string(sse), "event: done\n") {
		t.Fatalf("SSE body lacks expected frames:\n%s", sse)
	}
}

// TestLiveStreamFollowsToDone subscribes while the job is running and
// must observe a gapless, monotone stream ending in the done event.
func TestLiveStreamFollowsToDone(t *testing.T) {
	_, base := testDaemon(t, nil)
	j := submitJob(t, base, JobSpec{Family: "gnp:48:0.1", Seed: 31, Rounds: 300, RoundDelayMS: 1, CheckpointEvery: 8})
	waitState(t, base, j.ID, func(s JobState) bool { return s == JobRunning }, 10*time.Second)

	resp, err := http.Get(base + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	last, sawDone := 0, false
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if e.ID != last+1 {
			t.Fatalf("stream gap: %d after %d", e.ID, last)
		}
		last = e.ID
		if e.Type == "done" {
			sawDone = true
			if e.State != JobDone {
				t.Fatalf("done state %s", e.State)
			}
		}
	}
	if !sawDone || last != 301 {
		t.Fatalf("stream ended at id %d (done=%v), want 301", last, sawDone)
	}
}

// followStream reads a job's NDJSON event stream to its end and
// returns the events, failing on any ID gap.
func followStream(t *testing.T, body io.Reader) []Event {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if e.ID != len(out)+1 {
			t.Fatalf("stream gap: %d after %d", e.ID, len(out))
		}
		out = append(out, e)
	}
	return out
}

// TestStreamFollowsQueuedJobToDone pins the replay-then-follow promise
// for a job that has not started: a subscriber that connects while its
// job waits behind a busy runner must stay connected and follow the
// job, once it runs, to its done event with no gap — not receive an
// empty, already-closed stream.
func TestStreamFollowsQueuedJobToDone(t *testing.T) {
	_, base := testDaemon(t, func(c *Config) { c.Workers = 1 })
	busy := submitJob(t, base, JobSpec{Family: "gnp:32:0.15", Seed: 5, Rounds: 5000, RoundDelayMS: 2})
	waitState(t, base, busy.ID, func(s JobState) bool { return s == JobRunning }, 10*time.Second)
	queued := submitJob(t, base, JobSpec{Family: "gnp:48:0.1", Seed: 31, Rounds: 60, CheckpointEvery: 8})

	resp, err := http.Get(base + "/v1/jobs/" + queued.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if j := getJob(t, base, queued.ID); j.State != JobPending {
		t.Fatalf("job already %s when the subscriber connected; the test needs it queued", j.State)
	}
	// Free the runner: the queued job starts behind the canceled one.
	cresp, err := http.Post(base+"/v1/jobs/"+busy.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	io.Copy(io.Discard, cresp.Body)
	cresp.Body.Close()
	events := followStream(t, resp.Body)
	if n := len(events); n != 61 || events[n-1].Type != "done" || events[n-1].State != JobDone {
		t.Fatalf("stream ended after %d events (last %+v), want 60 rounds and a done event", n, events[max(0, n-1):])
	}
}

// TestStreamOfQueuedJobEndsOnCancel pins the other side of opening
// topics at admission: a job canceled while queued never runs, so its
// followers' streams must end instead of waiting forever.
func TestStreamOfQueuedJobEndsOnCancel(t *testing.T) {
	_, base := testDaemon(t, func(c *Config) { c.Workers = 1 })
	busy := submitJob(t, base, JobSpec{Family: "gnp:32:0.15", Seed: 5, Rounds: 5000, RoundDelayMS: 2})
	waitState(t, base, busy.ID, func(s JobState) bool { return s == JobRunning }, 10*time.Second)
	queued := submitJob(t, base, JobSpec{Family: "gnp:32:0.15", Seed: 6, Rounds: 50})

	resp, err := http.Get(base + "/v1/jobs/" + queued.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	ended := make(chan []Event, 1)
	go func() { ended <- followStream(t, resp.Body) }()

	cresp, err := http.Post(base+"/v1/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	io.Copy(io.Discard, cresp.Body)
	cresp.Body.Close()
	select {
	case events := <-ended:
		if len(events) != 0 {
			t.Fatalf("canceled queued job streamed %d events", len(events))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower of a job canceled while queued still waiting")
	}
}

// TestHealthzReportsLoad pins the operator view: with one worker busy
// and two jobs queued under distinct tenants, /v1/healthz must report
// the running-job count, total queue depth, and the per-tenant backlog
// (eliding tenants whose share is zero).
func TestHealthzReportsLoad(t *testing.T) {
	_, base := testDaemon(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 8
	})
	slow := JobSpec{Family: "gnp:32:0.15", Seed: 3, Rounds: 2000, RoundDelayMS: 2, Tenant: "alpha"}
	running := submitJob(t, base, slow)
	waitState(t, base, running.ID, func(s JobState) bool { return s == JobRunning }, 10*time.Second)
	submitJob(t, base, slow) // queued under alpha
	beta := slow
	beta.Tenant = "beta"
	submitJob(t, base, beta) // queued under beta

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h struct {
		OK            bool           `json:"ok"`
		Draining      bool           `json:"draining"`
		Queued        int            `json:"queued"`
		Jobs          int            `json:"jobs"`
		Running       int            `json:"running"`
		TenantBacklog map[string]int `json:"tenantBacklog"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if !h.OK || h.Draining {
		t.Fatalf("healthz flags: %+v", h)
	}
	if h.Running != 1 {
		t.Fatalf("running %d, want 1", h.Running)
	}
	if h.Queued != 2 {
		t.Fatalf("queued %d, want 2", h.Queued)
	}
	if h.Jobs != 3 {
		t.Fatalf("jobs %d, want 3", h.Jobs)
	}
	want := map[string]int{"alpha": 1, "beta": 1}
	if len(h.TenantBacklog) != len(want) {
		t.Fatalf("tenant backlog %v, want %v", h.TenantBacklog, want)
	}
	for tenant, n := range want {
		if h.TenantBacklog[tenant] != n {
			t.Fatalf("tenant %s backlog %d, want %d", tenant, h.TenantBacklog[tenant], n)
		}
	}
}
