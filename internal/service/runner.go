package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/beep"
	"repro/internal/ckpt"
	"repro/internal/stab"
)

// Cancellation causes, attached via context.WithCancelCause so the
// supervisor's ErrCanceled can be mapped back to the reason the run
// stopped.
var (
	// errDrain stops a run because the daemon is shutting down; the job
	// is checkpointed and left interrupted, to resume on next startup.
	errDrain = errors.New("daemon draining")
	// errClientCancel stops a run because a client asked; the job ends
	// canceled (terminal).
	errClientCancel = errors.New("canceled by client")
)

// runJob executes one job on a worker goroutine: resolve the spec,
// resume from the latest valid checkpoint (or start fresh), stream
// per-round events through the trace log and the hub, and map the
// supervisor's outcome onto the job state machine. It never panics the
// daemon: every failure path lands the job in a terminal state with a
// diagnostic.
func (d *Daemon) runJob(ctx context.Context, j *Job) {
	d.transition(j, func(j *Job) { j.State = JobRunning })

	g, proto, initMode, engine, err := j.Spec.resolve()
	if err != nil {
		d.finishFailed(j, nil, 0, fmt.Sprintf("resolve spec: %v", err))
		return
	}

	// Resume path: a checkpoint on disk means an earlier run got that
	// far. It was validated by the startup scan (or written by this
	// process), but re-validate here — the read includes the integrity
	// check, and a checkpoint that went bad between scan and run must
	// fail loudly, not resume silently from garbage.
	cpPath := d.store.CheckpointPath(j.ID)
	var resume *beep.Checkpoint
	if _, statErr := os.Stat(cpPath); statErr == nil {
		cp, _, err := ckpt.Load(cpPath)
		if err != nil {
			d.finishFailed(j, nil, 0, fmt.Sprintf("checkpoint rejected: %v", err))
			return
		}
		resume = cp
	}

	// Reconcile the trace with the resume point: keep rounds ≤ the
	// checkpoint (0 for a fresh start wipes everything), clearing any
	// torn tail a crash left behind.
	resumeRound := 0
	if resume != nil {
		resumeRound = resume.Round
	}
	tracePath := d.store.TracePath(j.ID)
	if err := truncateTrace(tracePath, resumeRound); err != nil {
		d.finishFailed(j, nil, resumeRound, fmt.Sprintf("reconcile trace: %v", err))
		return
	}
	tw, err := openTraceWriter(tracePath)
	if err != nil {
		d.finishFailed(j, nil, resumeRound, fmt.Sprintf("open trace: %v", err))
		return
	}

	// Per-job cancellation: the drain signal, a client cancel, and a
	// trace-write failure all funnel through this context's cause. The
	// supervisor checks it between rounds and checkpoints before
	// stopping.
	runCtx, cancelRun := context.WithCancelCause(ctx)
	defer cancelRun(nil)
	d.registerCancel(j.ID, cancelRun)
	defer d.unregisterCancel(j.ID)

	d.hub.attach(j.ID, tw.Flush)

	checkpointEvery := j.Spec.CheckpointEvery
	if checkpointEvery <= 0 {
		checkpointEvery = d.cfg.CheckpointEvery
	}
	roundDelay := time.Duration(j.Spec.RoundDelayMS) * time.Millisecond

	lastRound := resumeRound
	// The stats observer fires inside the same TryStep immediately
	// before the signal observer, so the stashed counts always belong
	// to the round being published.
	var active, frontierWords int
	statsObserver := func(round, act, fw int) { active, frontierWords = act, fw }
	// Checkpoint writes land between rounds, after the round's signals
	// were already published, so the durability metadata is stashed here
	// and rides the NEXT round event. Both observers fire on the
	// supervisor goroutine — no locking needed for the pending fields.
	var pendCkptKind string
	var pendCkptBytes int
	var pendCkptNS int64
	var jobCkptBytes int64
	ckptObserver := func(kind string, n int, dur time.Duration) {
		pendCkptKind, pendCkptBytes, pendCkptNS = kind, n, dur.Nanoseconds()
		jobCkptBytes += int64(n)
		d.ckptBytes.Add(int64(n))
	}
	observer := func(round int, sent, heard []beep.Signal) {
		lastRound = round
		beeps := 0
		for _, s := range sent {
			if s != 0 {
				beeps++
			}
		}
		ev := Event{
			ID:            round,
			Type:          "round",
			Round:         round,
			Hash:          fmt.Sprintf("%016x", stab.TraceHash(round, sent, heard)),
			Beeps:         beeps,
			Active:        active,
			FrontierWords: frontierWords,
		}
		if pendCkptKind != "" {
			ev.CkptKind, ev.CkptBytes, ev.CkptNS = pendCkptKind, pendCkptBytes, pendCkptNS
			pendCkptKind = ""
		}
		line := ev.encode()
		if err := tw.Append(line); err != nil {
			cancelRun(fmt.Errorf("trace append: %w", err))
			return
		}
		d.hub.publish(j.ID, line)
		// Make the trace durable BEFORE the supervisor writes the
		// checkpoint for this round (the observer fires inside TryStep;
		// the checkpoint write happens after it returns). This ordering
		// is the recovery invariant: checkpoint at round R on disk ⇒
		// trace intact through R.
		if round%checkpointEvery == 0 {
			if err := tw.Sync(); err != nil {
				cancelRun(fmt.Errorf("trace sync: %w", err))
				return
			}
		}
		if roundDelay > 0 {
			select {
			case <-runCtx.Done():
			case <-time.After(roundDelay):
			}
		}
	}

	opts := []beep.Option{beep.WithObserver(observer), beep.WithStatsObserver(statsObserver)}
	if j.Spec.Noise > 0 {
		opts = append(opts, beep.WithNoise(beep.Noise{PLoss: j.Spec.Noise, PFalse: j.Spec.Noise}))
	}
	sup, err := stab.NewSupervisor(stab.SupervisorConfig{
		Graph:              g,
		Protocol:           proto,
		Seed:               j.Spec.Seed,
		Init:               initMode,
		Engine:             engine,
		Options:            opts,
		Ctx:                runCtx,
		FixedRounds:        j.Spec.Rounds,
		MaxRounds:          j.Spec.MaxRounds,
		MaxRetries:         j.Spec.MaxRetries,
		Deadline:           time.Duration(j.Spec.DeadlineMS) * time.Millisecond,
		CheckpointEvery:    checkpointEvery,
		CheckpointPath:     cpPath,
		CheckpointObserver: ckptObserver,
		Resume:             resume,
	})
	if err != nil {
		d.finishFailed(j, tw, resumeRound, fmt.Sprintf("configure run: %v", err))
		return
	}

	res, runErr := sup.Run()

	switch {
	case runErr == nil:
		d.finishTerminal(j, tw, res.Rounds, func(j *Job) {
			j.State = JobDone
			j.Rounds = res.Rounds
			j.Stabilized = res.Stabilized
			j.MISSize = res.MISSize
			j.Attempts = res.Attempts
			j.Checkpoints = res.Checkpoints
			j.CheckpointBytes = jobCkptBytes
			j.Resumed = res.Resumed
		})

	case errors.Is(runErr, stab.ErrCanceled):
		cause := context.Cause(runCtx)
		switch {
		case errors.Is(cause, errDrain):
			// Interrupted, not terminal: the checkpoint the supervisor
			// took on cancellation resumes this execution next startup.
			// No done event — the stream stays open-ended.
			tw.Close()
			d.hub.closeTopic(j.ID)
			d.transition(j, func(j *Job) {
				j.State = JobInterrupted
				j.Rounds = lastRound
				j.CheckpointBytes = jobCkptBytes
				j.Resumed = resume != nil
			})
		case errors.Is(cause, errClientCancel):
			d.finishTerminal(j, tw, lastRound, func(j *Job) {
				j.State = JobCanceled
				j.Rounds = lastRound
				j.CheckpointBytes = jobCkptBytes
				j.Resumed = resume != nil
			})
		default:
			// Internal stop (trace I/O failure, parent teardown):
			// surface the cause as the failure diagnostic.
			diag := runErr.Error()
			if cause != nil {
				diag = cause.Error()
			}
			d.finishFailed(j, tw, lastRound, diag)
		}

	default:
		// ErrBudget, ErrDeadline, contained machine panics, restore
		// mismatches: terminal failure with the full diagnostic.
		d.finishFailed(j, tw, lastRound, runErr.Error())
	}
}

// finishTerminal closes out a terminal job: apply the state mutation,
// append + publish the done event, make the trace durable, and tear the
// topic down so live subscribers observe the end of stream.
func (d *Daemon) finishTerminal(j *Job, tw *traceWriter, finalRound int, mutate func(*Job)) {
	d.transition(j, mutate)
	done := Event{
		ID:         finalRound + 1,
		Type:       "done",
		State:      j.State,
		Rounds:     j.Rounds,
		MISSize:    j.MISSize,
		Stabilized: j.Stabilized,
		Error:      j.Error,
	}
	line := done.encode()
	if tw != nil {
		tw.Append(line) // best effort; Close flushes and fsyncs
		tw.Close()
	}
	d.hub.publish(j.ID, line)
	d.hub.closeTopic(j.ID)
}

// finishFailed lands the job in JobFailed with a diagnostic. tw may be
// nil when the failure happened before the trace was opened.
func (d *Daemon) finishFailed(j *Job, tw *traceWriter, finalRound int, diag string) {
	d.finishTerminal(j, tw, finalRound, func(j *Job) {
		j.State = JobFailed
		j.Rounds = finalRound
		j.Error = diag
	})
}
