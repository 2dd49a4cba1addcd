// Package service implements beepd's job engine: a crash-recovering,
// overload-resilient daemon that runs beeping-model MIS simulations as
// supervised jobs behind an HTTP/JSON API.
//
// The robustness spine rests on three properties:
//
//  1. Determinism. Executions are a pure function of (spec, seed), so a
//     job killed at ANY instant — even before its first checkpoint —
//     re-executes bit-identically. Checkpoints are an optimization of
//     recovery, never a correctness requirement.
//  2. Atomic persistence. Every job.json transition and checkpoint
//     write goes through temp + fsync + rename (internal/atomicio); the
//     one append-mode file (the trace) is fsynced before each
//     checkpoint write, so a checkpoint at round R on disk implies the
//     trace is intact through R. Torn tails are truncated on resume.
//  3. Admission control. The queue is bounded per daemon and per
//     tenant; a full queue rejects with 429 + Retry-After instead of
//     degrading the jobs already running.
package service

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
)

// Config tunes the daemon. The zero value is usable: Defaults fills
// every field.
type Config struct {
	// DataDir is the state directory (jobs, checkpoints, traces).
	DataDir string
	// Addr is the listen address ("127.0.0.1:0" for an ephemeral port;
	// the actual address is published to <data>/beepd.addr).
	Addr string
	// Workers is the number of concurrent job runners.
	Workers int
	// QueueDepth bounds jobs admitted but not yet running, across all
	// tenants. A full queue answers 429 with a Retry-After hint.
	QueueDepth int
	// TenantQueueDepth bounds one tenant's share of the queue, so a
	// single aggressive client cannot starve the others.
	TenantQueueDepth int
	// CheckpointEvery is the default auto-checkpoint cadence for specs
	// that do not set their own.
	CheckpointEvery int
	// DrainTimeout bounds graceful shutdown; runs that have not reached
	// a between-rounds cancellation point by then are abandoned (their
	// last auto-checkpoint still recovers them).
	DrainTimeout time.Duration
	// Logf receives daemon diagnostics (default log.Printf).
	Logf func(format string, args ...any)
}

// Defaults fills unset fields.
func (c *Config) Defaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.TenantQueueDepth <= 0 {
		c.TenantQueueDepth = c.QueueDepth
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 20 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Daemon is the beepd job engine: a bounded queue feeding a fixed
// worker pool, a persisted job table, and a pub/sub hub for live event
// streaming. Construct with New (which performs startup recovery),
// start serving with Start, stop with Shutdown.
type Daemon struct {
	cfg   Config
	store *Store
	hub   *hub

	mu       sync.Mutex
	jobs     map[string]*Job // all known jobs, persisted mirror
	pending  []*Job          // FIFO queue of jobs awaiting a worker
	queued   map[string]int  // per-tenant admission-counted queue share
	admitted int             // admission-counted queue occupancy
	cancels  map[string]context.CancelCauseFunc
	draining bool

	// ckptBytes accumulates checkpoint bytes persisted across all jobs
	// since startup (base snapshots + delta frames), for /v1/healthz.
	ckptBytes atomic.Int64

	wake     chan struct{} // pokes idle workers (capacity 1, never closed)
	drainCh  chan struct{} // closed once when Shutdown begins
	runCtx   context.Context
	stopRun  context.CancelCauseFunc
	wg       sync.WaitGroup
	listener net.Listener
	server   *http.Server
	doneCh   chan struct{}
}

// New opens (or creates) the data directory, runs startup recovery over
// every job found on disk, and returns a daemon ready to Start.
//
// Recovery policy, per job directory:
//
//   - unreadable or malformed job.json: quarantine it (job.json.bad)
//     and synthesize a failed record carrying the diagnostic — the
//     daemon must come up even over a mangled store;
//   - pending: re-queue as-is;
//   - running / interrupted (a crash or drain stopped it): if the
//     checkpoint file is missing, wipe the trace and re-queue a fresh
//     deterministic restart; if it is present and valid, re-queue a
//     resume; if it is present and REJECTED (tampered, torn), the job
//     fails with the validation diagnostic — recovery never guesses
//     around integrity;
//   - terminal states: left untouched.
func New(cfg Config) (*Daemon, error) {
	cfg.Defaults()
	store, err := OpenStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:     cfg,
		store:   store,
		hub:     newHub(),
		jobs:    make(map[string]*Job),
		queued:  make(map[string]int),
		cancels: make(map[string]context.CancelCauseFunc),
		wake:    make(chan struct{}, 1),
		drainCh: make(chan struct{}),
		doneCh:  make(chan struct{}),
	}
	d.runCtx, d.stopRun = context.WithCancelCause(context.Background())
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// recover scans the store and rebuilds the in-memory job table and
// queue. It must not fail on bad per-job state — only on an unusable
// store.
func (d *Daemon) recover() error {
	ids, err := d.store.jobIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		j, err := d.store.LoadJob(id)
		if err != nil {
			d.cfg.Logf("beepd: recovery: job %s: %v — quarantining", id, err)
			bad := filepath.Join(d.store.JobDir(id), jobFileName)
			os.Rename(bad, bad+".bad") // best effort
			j = &Job{
				ID:        id,
				State:     JobFailed,
				CreatedAt: time.Now().UTC(),
				Error:     fmt.Sprintf("recovery: %v", err),
			}
			d.saveLocked(j)
			d.jobs[id] = j
			continue
		}
		switch j.State {
		case JobPending:
			d.jobs[id] = j
			d.pending = append(d.pending, j)
			d.hub.open(id)

		case JobRunning, JobInterrupted:
			cpPath := d.store.CheckpointPath(id)
			if _, statErr := os.Stat(cpPath); statErr != nil {
				// No checkpoint: determinism makes a fresh restart
				// bit-exact. Wipe the stale trace so the re-execution
				// owns the log from round 0.
				os.Remove(d.store.TracePath(id))
				d.cfg.Logf("beepd: recovery: job %s interrupted before first checkpoint; restarting fresh", id)
			} else if _, _, cpErr := ckpt.Load(cpPath); cpErr != nil {
				// Tampered or torn checkpoint: fail with the integrity
				// diagnostic. The daemon keeps serving; the job does
				// not resume from unverifiable state.
				d.cfg.Logf("beepd: recovery: job %s: %v", id, cpErr)
				j.State = JobFailed
				j.Error = fmt.Sprintf("recovery: checkpoint rejected: %v", cpErr)
				j.UpdatedAt = time.Now().UTC()
				d.saveLocked(j)
				d.jobs[id] = j
				continue
			} else {
				d.cfg.Logf("beepd: recovery: job %s resumes from checkpoint", id)
			}
			j.State = JobPending
			j.Resumed = true
			j.UpdatedAt = time.Now().UTC()
			d.saveLocked(j)
			d.jobs[id] = j
			d.pending = append(d.pending, j)
			d.hub.open(id)

		default:
			d.jobs[id] = j
		}
	}
	// Recovered jobs are NOT admission-counted: they were admitted in a
	// previous life and are bounded by what the disk holds; counting
	// them could wedge a freshly restarted daemon into rejecting all
	// new work.
	return nil
}

// Start binds the listener, publishes the address file, and launches
// the worker pool and HTTP server. It returns once the daemon is
// accepting connections.
func (d *Daemon) Start() error {
	ln, err := net.Listen("tcp", d.cfg.Addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", d.cfg.Addr, err)
	}
	d.listener = ln
	if err := d.store.WriteAddrFile(ln.Addr().String()); err != nil {
		ln.Close()
		return err
	}
	d.server = &http.Server{Handler: d.routes()}
	for i := 0; i < d.cfg.Workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	go func() {
		if err := d.server.Serve(ln); err != nil && err != http.ErrServerClosed {
			d.cfg.Logf("beepd: serve: %v", err)
		}
	}()
	d.cfg.Logf("beepd: listening on %s (data %s, workers %d, queue %d)",
		ln.Addr(), d.store.Dir(), d.cfg.Workers, d.cfg.QueueDepth)
	return nil
}

// Addr returns the actual listen address (after Start).
func (d *Daemon) Addr() string {
	if d.listener == nil {
		return ""
	}
	return d.listener.Addr().String()
}

// worker pulls jobs off the queue until drain.
func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		j := d.dequeue()
		if j == nil {
			return
		}
		d.runJob(d.runCtx, j)
		// More work may be queued behind this one.
		select {
		case d.wake <- struct{}{}:
		default:
		}
	}
}

// dequeue blocks until a job is available or the daemon drains.
func (d *Daemon) dequeue() *Job {
	for {
		d.mu.Lock()
		if len(d.pending) > 0 && !d.draining {
			j := d.pending[0]
			d.pending = d.pending[1:]
			if d.queued[j.Spec.Tenant] > 0 {
				d.queued[j.Spec.Tenant]--
			}
			if d.admitted > 0 {
				d.admitted--
			}
			d.mu.Unlock()
			return j
		}
		stopped := d.draining
		d.mu.Unlock()
		if stopped {
			return nil
		}
		select {
		case <-d.wake:
		case <-d.drainCh:
			return nil
		case <-d.runCtx.Done():
			return nil
		}
	}
}

// Submit validates and enqueues a job, or rejects it:
// errQueueFull (429) when the daemon or tenant queue is saturated,
// errDraining (503) during shutdown. Spec errors surface as-is (400).
func (d *Daemon) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		return nil, errDraining
	}
	if d.admitted >= d.cfg.QueueDepth {
		retry := d.retryAfterLocked()
		d.mu.Unlock()
		return nil, &queueFullError{scope: "daemon", retryAfter: retry}
	}
	if d.queued[spec.Tenant] >= d.cfg.TenantQueueDepth {
		retry := d.retryAfterLocked()
		d.mu.Unlock()
		return nil, &queueFullError{scope: "tenant " + spec.Tenant, retryAfter: retry}
	}
	now := time.Now().UTC()
	j := &Job{
		ID:        d.store.NextID(),
		Spec:      spec,
		State:     JobPending,
		CreatedAt: now,
		UpdatedAt: now,
	}
	if err := d.store.SaveJob(j); err != nil {
		d.mu.Unlock()
		return nil, err
	}
	d.jobs[j.ID] = j
	d.pending = append(d.pending, j)
	d.hub.open(j.ID)
	d.queued[spec.Tenant]++
	d.admitted++
	out := j.clone()
	d.mu.Unlock()
	select {
	case d.wake <- struct{}{}:
	default:
	}
	return out, nil
}

// retryAfterLocked estimates seconds until a queue slot frees: the
// backlog divided across the worker pool, floored at one second.
func (d *Daemon) retryAfterLocked() int {
	r := 1 + len(d.pending)/d.cfg.Workers
	if r < 1 {
		r = 1
	}
	return r
}

// Get returns a copy of one job.
func (d *Daemon) Get(id string) (*Job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// List returns copies of jobs, optionally filtered by tenant and state,
// in ID order.
func (d *Daemon) List(tenant string, state JobState) []*Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Job, 0, len(d.jobs))
	for _, j := range d.jobs {
		if tenant != "" && j.Spec.Tenant != tenant {
			continue
		}
		if state != "" && j.State != state {
			continue
		}
		out = append(out, j.clone())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Cancel stops a job: a pending job is removed from the queue and
// canceled immediately; a running one is canceled cooperatively at the
// next between-rounds point (checkpointing first). Canceling a job in a
// terminal state is a no-op reporting false.
func (d *Daemon) Cancel(id string) (*Job, bool, error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		return nil, false, errUnknownJob
	}
	switch j.State {
	case JobPending:
		for i, p := range d.pending {
			if p.ID == id {
				d.pending = append(d.pending[:i], d.pending[i+1:]...)
				if d.queued[j.Spec.Tenant] > 0 {
					d.queued[j.Spec.Tenant]--
				}
				if d.admitted > 0 {
					d.admitted--
				}
				break
			}
		}
		j.State = JobCanceled
		j.UpdatedAt = time.Now().UTC()
		d.saveLocked(j)
		out := j.clone()
		d.mu.Unlock()
		// The job will never run: end its followers' streams.
		d.hub.closeTopic(id)
		return out, true, nil
	case JobRunning:
		cancel := d.cancels[id]
		out := j.clone()
		d.mu.Unlock()
		if cancel != nil {
			cancel(errClientCancel)
		}
		return out, true, nil
	default:
		out := j.clone()
		d.mu.Unlock()
		return out, false, nil
	}
}

// Shutdown drains the daemon: stop accepting submissions, cancel every
// running job with the drain cause (each checkpoints and lands in
// interrupted), wait for workers up to DrainTimeout, then stop the HTTP
// server. Safe to call once.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		<-d.doneCh
		return nil
	}
	d.draining = true
	cancels := make([]context.CancelCauseFunc, 0, len(d.cancels))
	for _, c := range d.cancels {
		cancels = append(cancels, c)
	}
	d.mu.Unlock()

	for _, c := range cancels {
		c(errDrain)
	}
	// Wake any workers parked on an empty queue.
	close(d.drainCh)

	workersDone := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(workersDone)
	}()
	timeout := time.NewTimer(d.cfg.DrainTimeout)
	defer timeout.Stop()
	var drainErr error
	select {
	case <-workersDone:
	case <-timeout.C:
		drainErr = fmt.Errorf("service: drain timeout after %v", d.cfg.DrainTimeout)
		d.stopRun(errDrain)
	case <-ctx.Done():
		drainErr = ctx.Err()
		d.stopRun(errDrain)
	}

	d.hub.closeAll()
	if d.server != nil {
		shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		d.server.Shutdown(shCtx)
	}
	d.stopRun(errDrain)
	close(d.doneCh)
	return drainErr
}

// transition applies a state mutation under the daemon lock and
// persists the record. Persistence failures are logged, not fatal: the
// in-memory table stays authoritative for this process, and the worst
// outcome after a crash is re-executing a completed deterministic job.
func (d *Daemon) transition(j *Job, mutate func(*Job)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	mutate(j)
	j.UpdatedAt = time.Now().UTC()
	d.saveLocked(j)
}

func (d *Daemon) saveLocked(j *Job) {
	if err := d.store.SaveJob(j); err != nil {
		d.cfg.Logf("beepd: persist job %s: %v", j.ID, err)
	}
}

func (d *Daemon) registerCancel(id string, c context.CancelCauseFunc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cancels[id] = c
}

func (d *Daemon) unregisterCancel(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.cancels, id)
}
