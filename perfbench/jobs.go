package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// jobs drives beepd over its HTTP API from one closed-loop client. Each
// op submits a job and follows its event stream to the done event. Most
// of an op happens outside the simulation — admission, job.json
// transitions, trace appends, a small base plus a short delta chain,
// event fan-out — so this is the workload where the service layer
// dominates, and it uses the checkpoint chain as many short chains
// instead of one long one. One client, not one per beepd runner: two
// clients plus this process saturate two CPUs, where a few percent of
// hypervisor steal moved the median latency by 8-15% between runs.
//
// beepd can close a live job's event stream early: when a client
// subscribes before the job's runner has opened its topic, the hub
// returns the (empty) durable log and the handler ends a 200 stream
// without the done event. The client re-subscribes with ?after=<last
// id> after resubscribeDelay and counts such streams in
// service.early_close.
type jobs struct {
	family          string
	checkpointEvery int
}

// jobOutcome is a finished job: its id and its done event.
type jobOutcome struct {
	id   string
	done jobEvent
}

// jobEvent is the part of a beepd event the client reads.
type jobEvent struct {
	ID         int    `json:"id"`
	Type       string `json:"type"`
	State      string `json:"state"`
	Rounds     int    `json:"rounds"`
	MISSize    int    `json:"misSize"`
	Stabilized bool   `json:"stabilized"`
	Error      string `json:"error"`
}

// resubscribeDelay paces re-subscriptions after an early-closed stream.
// Without it the client polls the events endpoint every few hundred
// microseconds until the runner starts, and those requests take CPU
// from the runner.
const resubscribeDelay = time.Millisecond

// errRefused marks a submission beepd refused (429 or 503).
var errRefused = errors.New("refused")

// daemon is one running beepd on its own data directory.
type daemon struct {
	cmd  *exec.Cmd
	dir  string
	base string
	done chan error // cmd.Wait's result
}

// startDaemon starts beepd with its default flags on a fresh data
// directory and returns once GET /v1/healthz answers 200.
func startDaemon(cfg *config, client *http.Client) (*daemon, error) {
	dir, err := cfg.tempDir("beepd")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, done: make(chan error, 1)}
	d.cmd = exec.Command(filepath.Join(cfg.binDir, "beepd"), "-data", dir)
	d.cmd.Stderr = cfg.log
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start beepd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := d.healthy(client); err == nil {
			return d, nil
		} else if time.Now().After(deadline) {
			return nil, errors.Join(fmt.Errorf("beepd not healthy: %w", err), d.stop())
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, errors.Join(fmt.Errorf("beepd exited during start: %v", err), d.stop())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// healthy reads the published address (once) and probes healthz.
func (d *daemon) healthy(client *http.Client) error {
	if d.base == "" {
		addr, err := os.ReadFile(filepath.Join(d.dir, "beepd.addr"))
		if err != nil || len(bytes.TrimSpace(addr)) == 0 {
			return fmt.Errorf("no address published yet")
		}
		d.base = "http://" + string(bytes.TrimSpace(addr))
	}
	resp, err := client.Get(d.base + "/v1/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// stop drains beepd with SIGTERM, killing it if it outlives its drain
// timeout, waits for it to exit and removes its data directory.
func (d *daemon) stop() error {
	var err error
	if d.cmd.Process != nil {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case werr := <-d.done:
			// beepd installs its SIGTERM handler only after it starts
			// serving, so a signal right after the first healthy
			// answer may end it by the default action instead of a
			// drain. Either way it has stopped.
			var exit *exec.ExitError
			if errors.As(werr, &exit) {
				if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
					werr = nil
				}
			}
			if werr != nil {
				err = fmt.Errorf("beepd exit: %w", werr)
			}
		case <-time.After(30 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
			err = errors.New("beepd did not drain within 30s")
		}
	}
	return errors.Join(err, os.RemoveAll(d.dir))
}

func (w jobs) run(cfg *config) (*result, error) {
	res := &result{}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	var d *daemon
	teardown := func() error {
		if d == nil {
			return nil
		}
		err := d.stop()
		d = nil
		return err
	}
	var err error
	res.setups, err = timeSetups(cfg, func(int) error {
		d, err = startDaemon(cfg, client)
		return err
	}, teardown)
	if err != nil {
		return nil, errors.Join(err, teardown())
	}
	pid := d.cmd.Process.Pid

	var (
		last                                   jobOutcome
		events, earlyClose, refused, ckptBytes int64
	)
	op := timedOp{
		do: func(idx, span int) (int, error) {
			var err error
			last, err = w.job(cfg, client, d.base, idx, span, &events, &earlyClose)
			if errors.Is(err, errRefused) {
				refused++
			}
			return last.done.Rounds, err
		},
		check: func(int) (int, error) {
			if done := last.done; done.State != "done" || !done.Stabilized {
				return 0, fmt.Errorf("job %s ended %q (stabilized=%v): %s", last.id, done.State, done.Stabilized, done.Error)
			}
			if cfg.traced {
				n, err := jobCheckpointBytes(client, d.base, last.id)
				if err != nil {
					return 0, err
				}
				ckptBytes += n
			}
			return last.done.MISSize, nil
		},
	}
	res.measurement = measure(cfg, op, func() time.Duration {
		t, _ := procCPU(pid)
		return t
	})
	res.memMB, err = procPeakRSSMB(pid)
	err = errors.Join(err, teardown())

	total := len(res.main.ops)
	if res.baseline != nil {
		total += len(res.baseline.ops)
	}
	if n := len(res.main.ops); n > 0 {
		res.count("service.cpu_ms_per_job", float64(res.main.cpu)/float64(time.Millisecond)/float64(n))
	}
	if total > 0 {
		res.count("service.events_per_job", float64(events)/float64(total))
		res.count("service.ckpt_bytes_per_job", float64(ckptBytes)/float64(total))
	}
	res.count("service.early_close", float64(earlyClose))
	res.count("service.refused", float64(refused))
	return res, err
}

// job submits the job of schedule index idx and follows its events to
// the done event. The submission is one span; the wait for the first
// round event and the stream from there to the done event are two more.
func (w jobs) job(cfg *config, client *http.Client, base string, idx, span int, events, earlyClose *int64) (jobOutcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	spec, err := json.Marshal(map[string]any{
		"family":          w.family,
		"seed":            mix(cfg.seed, streamOp, idx),
		"checkpointEvery": w.checkpointEvery,
	})
	if err != nil {
		return jobOutcome{}, err
	}
	id := cfg.tr.begin("service.submit", span, idx)
	jobID, err := submit(ctx, client, base, spec)
	cfg.tr.end(id)
	if err != nil {
		return jobOutcome{}, err
	}

	out := jobOutcome{id: jobID}
	phase := cfg.tr.begin("service.first_event", span, idx)
	defer func() { cfg.tr.end(phase) }()
	streaming := false
	after := 0
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/v1/jobs/%s/events?after=%d", base, jobID, after), nil)
		if err != nil {
			return jobOutcome{}, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return jobOutcome{}, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return jobOutcome{}, fmt.Errorf("events of %s: %s", jobID, resp.Status)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var e jobEvent
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				resp.Body.Close()
				return out, fmt.Errorf("events of %s: %w", jobID, err)
			}
			*events++
			after = e.ID
			switch e.Type {
			case "round":
				if !streaming {
					streaming = true
					cfg.tr.end(phase)
					phase = cfg.tr.begin("service.stream", span, idx)
				}
			case "done":
				resp.Body.Close()
				out.done = e
				return out, nil
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return jobOutcome{}, fmt.Errorf("events of %s: %w", jobID, err)
		}
		*earlyClose++
		time.Sleep(resubscribeDelay)
	}
}

// submit posts a job spec and returns the new job's id.
func submit(ctx context.Context, client *http.Client, base string, spec []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(spec))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return "", fmt.Errorf("submit: %w: %s", errRefused, resp.Status)
	default:
		return "", fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &job); err != nil || job.ID == "" {
		return "", fmt.Errorf("submit: no job id in %q", body)
	}
	return job.ID, nil
}

// jobCheckpointBytes reads a job's checkpoint bytes from its record.
func jobCheckpointBytes(client *http.Client, base, jobID string) (int64, error) {
	resp, err := client.Get(base + "/v1/jobs/" + jobID)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var job struct {
		CheckpointBytes int64 `json:"checkpointBytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return 0, fmt.Errorf("job %s: %w", jobID, err)
	}
	return job.CheckpointBytes, nil
}
