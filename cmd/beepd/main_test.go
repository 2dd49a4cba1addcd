package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/ckpt"
)

// The chaos tests need a real process to SIGKILL. Instead of building
// the binary, the test binary re-executes itself as the daemon when
// this env var is set — TestMain diverts into daemon mode before any
// test runs.
const daemonEnv = "BEEPD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		runTestDaemon()
		return
	}
	os.Exit(m.Run())
}

// runTestDaemon is the child-process entry: the binary's own run
// (flags → signal handler → serve → SIGTERM → drain), over the data
// directory named by an env var.
func runTestDaemon() {
	err := run([]string{"-data", os.Getenv("BEEPD_DATA"), "-workers", "2",
		"-checkpoint-every", "16", "-drain-timeout", "30s"})
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemon:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// daemonProc is a daemon child process. A goroutine reaps it as soon as
// it exits; done is closed then, and err holds the exit status.
type daemonProc struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	done   chan struct{}
	err    error
}

// kill SIGKILLs the child and waits until it is reaped.
func (p *daemonProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// startDaemon launches the daemon over dir and waits until it answers
// /v1/healthz. The test's cleanup kills and reaps the child if it is
// still running, so a failing test never leaves a daemon behind.
func startDaemon(t *testing.T, dir string) (*daemonProc, string) {
	t.Helper()
	// A stale address file from a previous life must not race the poll.
	addrFile := filepath.Join(dir, "beepd.addr")
	os.Remove(addrFile)

	p := &daemonProc{cmd: exec.Command(os.Args[0]), done: make(chan struct{})}
	p.cmd.Env = append(os.Environ(), daemonEnv+"=1", "BEEPD_DATA="+dir)
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		select {
		case <-p.done:
		default:
			p.kill()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(data)) > 0 {
			addr := strings.TrimSpace(string(data))
			// Confirm liveness, not just the file write.
			resp, err := http.Get("http://" + addr + "/v1/healthz")
			if err == nil {
				resp.Body.Close()
				return p, "http://" + addr
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	p.kill()
	t.Fatalf("daemon never came up; stderr:\n%s", p.stderr.String())
	return nil, ""
}

// stopDaemon sends SIGTERM and requires the drain to exit 0.
func stopDaemon(t *testing.T, p *daemonProc) {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		if p.err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v; stderr:\n%s", p.err, p.stderr.String())
		}
	case <-time.After(40 * time.Second):
		p.kill()
		t.Fatalf("daemon did not drain within 40s of SIGTERM")
	}
}

func postJob(t *testing.T, base string, spec map[string]any) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, msg)
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return j.ID
}

func jobState(t *testing.T, base, id string) (state string, errMsg string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("get job: %v", err)
	}
	defer resp.Body.Close()
	var j struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return j.State, j.Error
}

func waitTerminal(t *testing.T, base, id string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		state, _ := jobState(t, base, id)
		switch state {
		case "done", "failed", "canceled":
			return state
		}
		time.Sleep(10 * time.Millisecond)
	}
	state, errMsg := jobState(t, base, id)
	t.Fatalf("job %s stuck in %s (error %q)", id, state, errMsg)
	return ""
}

type traceEvent struct {
	ID    int    `json:"id"`
	Type  string `json:"type"`
	Round int    `json:"round"`
	Hash  string `json:"hash"`
	State string `json:"state"`
}

// jobTrace fetches the full event stream: the (round → hash) map plus
// the terminal state reported by the done event.
func jobTrace(t *testing.T, base, id string) (map[int]string, string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("get events: %v", err)
	}
	defer resp.Body.Close()
	hashes := make(map[int]string)
	doneState := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e traceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		switch e.Type {
		case "round":
			hashes[e.Round] = e.Hash
		case "done":
			doneState = e.State
		}
	}
	return hashes, doneState
}

// chaosSpecs are the two jobs each chaos iteration runs: long enough
// (~1s paced) that a kill 10–700ms in lands mid-run, checkpointed
// frequently enough that resume exercises real checkpoints.
func chaosSpecs() []map[string]any {
	return []map[string]any{
		{"family": "gnp:48:0.1", "seed": 41, "rounds": 900, "checkpointEvery": 16, "roundDelayMs": 1},
		{"family": "grid:8:8", "seed": 42, "rounds": 900, "checkpointEvery": 16, "roundDelayMs": 1, "alg": "alg2-two-channel"},
	}
}

// referenceTraces runs the workload once, uninterrupted, and returns
// the per-job (round → hash) traces every chaos iteration must
// reproduce bit-exactly.
func referenceTraces(t *testing.T) []map[int]string {
	t.Helper()
	dir := t.TempDir()
	cmd, base := startDaemon(t, dir)
	defer stopDaemon(t, cmd)
	var traces []map[int]string
	for _, spec := range chaosSpecs() {
		id := postJob(t, base, spec)
		if state := waitTerminal(t, base, id, 60*time.Second); state != "done" {
			t.Fatalf("reference job %s ended %s", id, state)
		}
		hashes, doneState := jobTrace(t, base, id)
		if doneState != "done" || len(hashes) != 900 {
			t.Fatalf("reference job %s: done=%q rounds=%d", id, doneState, len(hashes))
		}
		traces = append(traces, hashes)
	}
	return traces
}

// TestChaosKillRestartResume is the headline robustness proof: the
// daemon is SIGKILLed at ≥20 randomized points mid-workload; after each
// kill a fresh daemon over the same directory must recover, resume, and
// finish every job with a per-round trace hash sequence bit-identical
// to the uninterrupted reference.
func TestChaosKillRestartResume(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is long; skipped in -short")
	}
	ref := referenceTraces(t)

	iterations := 20 // with 2 jobs in flight per kill: 20 kill points, 40 interrupted executions
	rnd := rand.New(rand.NewSource(0xbeeb))
	for iter := 0; iter < iterations; iter++ {
		dir := t.TempDir()
		cmd, base := startDaemon(t, dir)

		ids := make([]string, 0, 2)
		for _, spec := range chaosSpecs() {
			ids = append(ids, postJob(t, base, spec))
		}
		// Both jobs running (2 workers), then the axe falls at a
		// randomized point: early enough to precede the first
		// checkpoint sometimes, late enough to be mid-stride others.
		for _, id := range ids {
			deadline := time.Now().Add(10 * time.Second)
			for {
				state, _ := jobState(t, base, id)
				if state == "running" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("iter %d: job %s never started", iter, id)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		delay := time.Duration(10+rnd.Intn(690)) * time.Millisecond
		time.Sleep(delay)
		cmd.kill()

		// The store must witness the crash: job records still say
		// "running" — no orderly transition happened.
		for _, id := range ids {
			data, err := os.ReadFile(filepath.Join(dir, "jobs", id, "job.json"))
			if err != nil {
				t.Fatalf("iter %d: read %s job.json after kill: %v", iter, id, err)
			}
			var j struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal(data, &j); err != nil {
				t.Fatalf("iter %d: job.json torn despite atomic writes: %v", iter, err)
			}
			if j.State != "running" {
				t.Fatalf("iter %d (kill after %v): job %s on disk is %q, want running", iter, delay, id, j.State)
			}
		}

		// Second life: recover, resume, finish, and match the reference
		// trace hash-for-hash.
		cmd2, base2 := startDaemon(t, dir)
		for k, id := range ids {
			if state := waitTerminal(t, base2, id, 90*time.Second); state != "done" {
				_, errMsg := jobState(t, base2, id)
				t.Fatalf("iter %d (kill after %v): job %s resumed to %s (error %q)", iter, delay, id, state, errMsg)
			}
			hashes, doneState := jobTrace(t, base2, id)
			if doneState != "done" {
				t.Fatalf("iter %d: job %s stream lacks done event", iter, id)
			}
			if len(hashes) != len(ref[k]) {
				t.Fatalf("iter %d (kill after %v): job %s trace has %d rounds, reference %d",
					iter, delay, id, len(hashes), len(ref[k]))
			}
			for r, h := range ref[k] {
				if hashes[r] != h {
					t.Fatalf("iter %d (kill after %v): job %s round %d hash %s, reference %s — resume is not bit-exact",
						iter, delay, id, r, hashes[r], h)
				}
			}
		}
		stopDaemon(t, cmd2)
	}
}

// TestDaemonSIGTERMDrain verifies graceful shutdown end to end at the
// process level: SIGTERM with jobs in flight exits 0 after
// checkpointing them as interrupted, and the next start resumes to the
// reference trace.
func TestDaemonSIGTERMDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("drain test is long; skipped in -short")
	}
	ref := referenceTraces(t)

	dir := t.TempDir()
	cmd, base := startDaemon(t, dir)
	ids := make([]string, 0, 2)
	for _, spec := range chaosSpecs() {
		ids = append(ids, postJob(t, base, spec))
	}
	for _, id := range ids {
		deadline := time.Now().Add(10 * time.Second)
		for {
			state, _ := jobState(t, base, id)
			if state == "running" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never started", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	time.Sleep(150 * time.Millisecond)
	stopDaemon(t, cmd) // SIGTERM; fails the test unless exit status 0

	// Drained state on disk: interrupted, with a checkpoint that passes
	// the integrity check.
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(dir, "jobs", id, "job.json"))
		if err != nil {
			t.Fatalf("read job.json: %v", err)
		}
		var j struct {
			State  string `json:"state"`
			Rounds int    `json:"rounds"`
		}
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatalf("decode job.json: %v", err)
		}
		if j.State != "interrupted" {
			t.Fatalf("drained job %s is %q, want interrupted", id, j.State)
		}
		cp, _, err := ckpt.Load(filepath.Join(dir, "jobs", id, "checkpoint.ck"))
		if err != nil {
			t.Fatalf("drained job %s checkpoint invalid: %v", id, err)
		}
		if cp.Round == 0 || cp.Round >= 900 {
			t.Fatalf("drained job %s checkpoint at round %d, want mid-run", id, cp.Round)
		}
	}

	cmd2, base2 := startDaemon(t, dir)
	defer stopDaemon(t, cmd2)
	for k, id := range ids {
		if state := waitTerminal(t, base2, id, 90*time.Second); state != "done" {
			t.Fatalf("job %s resumed to %s", id, state)
		}
		hashes, doneState := jobTrace(t, base2, id)
		if doneState != "done" || len(hashes) != len(ref[k]) {
			t.Fatalf("job %s: done=%q rounds=%d (reference %d)", id, doneState, len(hashes), len(ref[k]))
		}
		for r, h := range ref[k] {
			if hashes[r] != h {
				t.Fatalf("job %s round %d hash %s, reference %s", id, r, hashes[r], h)
			}
		}
	}
}

// TestDaemonSIGTERMAtStartup pins the signal-handler ordering: the
// daemon installs its SIGTERM handler before it starts serving, so a
// SIGTERM sent right after the first healthy /v1/healthz drains and
// exits 0 instead of killing the process by the default action.
func TestDaemonSIGTERMAtStartup(t *testing.T) {
	for i := 0; i < 5; i++ {
		p, _ := startDaemon(t, t.TempDir())
		stopDaemon(t, p)
	}
}
