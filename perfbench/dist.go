package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
)

// distRun is one distributed run to stabilization: a coordinator in
// this process and worker processes launched by dist.ProcSpawner, with
// the default synchronized-checkpoint cadence. Worker spawn and join,
// the per-round delta exchange and the synchronized checkpoint make up
// most of an op; it is the only workload that loads internal/dist.
type distRun struct {
	n       int
	degree  float64
	graphs  int
	workers int
}

// ckptEvery is dist's default synchronized-checkpoint cadence; the
// round after each checkpoint is traced as dist.ckpt_round.
const ckptEvery = 8

func (w distRun) run(cfg *config) (*result, error) {
	res := &result{}
	var graphs []*graph.Graph
	var err error
	res.setups, err = timeSetups(cfg, func(span int) error {
		graphs = gnpGraphs(cfg, w.graphs, w.n, w.degree, span)
		return nil
	}, func() error { return nil })
	if err != nil {
		return nil, err
	}

	spawner := &dist.ProcSpawner{Binary: filepath.Join(cfg.binDir, "beepworker")}
	var (
		last                        *dist.Result
		respawns, rounds, wireBytes int64
		workerRSS                   float64
	)
	op := timedOp{
		do: func(idx, span int) (int, error) {
			c := dist.Config{
				Graph:      graphs[idx%len(graphs)],
				Protocol:   "alg1-known-delta",
				Seed:       mix(cfg.seed, streamOp, idx),
				Partitions: w.workers,
				Spawner:    spawner,
			}
			start := time.Now()
			var prev time.Time
			if cfg.tr != nil {
				c.Observer = func(round int, _ uint64) {
					now := time.Now()
					switch {
					case prev.IsZero():
						cfg.tr.add("dist.join", start, now, span, idx)
					case round > 1 && (round-1)%ckptEvery == 0:
						cfg.tr.add("dist.ckpt_round", prev, now, span, idx)
					default:
						cfg.tr.add("dist.round", prev, now, span, idx)
					}
					prev = now
					// Workers are reaped inside dist, so their peak RSS
					// is sampled while they run, after each checkpoint
					// round; the sampling stays out of the round spans.
					if round%ckptEvery == 1 {
						for p := 0; p < w.workers; p++ {
							if rss, err := procPeakRSSMB(spawner.Pid(p)); err == nil {
								workerRSS = max(workerRSS, rss)
							}
						}
						prev = time.Now()
					}
				}
			}
			r, err := dist.Run(context.Background(), c)
			if cfg.tr != nil && !prev.IsZero() {
				cfg.tr.add("dist.teardown", prev, time.Now(), span, idx)
			}
			last = r
			if err != nil {
				return 0, errors.Join(err, w.awaitWorkers(spawner))
			}
			return r.StabilizedRound, nil
		},
		check: func(idx int) (int, error) {
			if err := w.awaitWorkers(spawner); err != nil {
				return 0, err
			}
			r := last
			respawns += int64(r.Respawns)
			rounds += int64(r.Rounds)
			wireBytes += r.WireBytes
			g := graphs[idx%len(graphs)]
			ref, err := core.Run(core.RunConfig{Graph: g, Protocol: newProtocol(), Seed: mix(cfg.seed, streamOp, idx), Init: core.InitRandom})
			if err != nil {
				return 0, fmt.Errorf("in-process reference: %w", err)
			}
			switch {
			case !r.Stabilized || r.StabilizedRound != ref.Rounds:
				return 0, fmt.Errorf("stabilized=%v at round %d, in-process run stabilized at %d", r.Stabilized, r.StabilizedRound, ref.Rounds)
			case !slices.Equal(r.MIS, ref.MIS):
				return 0, errors.New("MIS differs from the in-process run")
			case r.Respawns != 0:
				return 0, fmt.Errorf("%d worker respawns in a fault-free run", r.Respawns)
			}
			return r.MISSize, nil
		},
	}
	// Workers are reaped after their op, so their CPU is read over the
	// whole measurement; the coordinator's is summed across ops.
	child0 := childrenCPU()
	res.measurement = measure(cfg, op, selfCPU)
	if !cfg.traced {
		res.main.cpu += childrenCPU() - child0
	}
	// The live heap is taken while the graphs and the last run's result
	// are still referenced.
	res.memMB = liveHeapMB()
	runtime.KeepAlive(graphs)
	runtime.KeepAlive(last)

	res.count("dist.respawns", float64(respawns))
	res.count("dist.worker_rss_mb", workerRSS)
	if rounds > 0 {
		res.count("dist.wire_bytes_per_round", float64(wireBytes)/float64(rounds))
	}
	return res, nil
}

// awaitWorkers waits until the last-spawned worker of every partition
// has exited and been reaped, so that no op overlaps the previous one's
// workers and their CPU time is accounted.
func (w distRun) awaitWorkers(s *dist.ProcSpawner) error {
	deadline := time.Now().Add(30 * time.Second)
	for p := 0; p < w.workers; p++ {
		pid := s.Pid(p)
		for pid > 0 && processAlive(pid) {
			if time.Now().After(deadline) {
				return fmt.Errorf("worker %d (pid %d) still running 30s after its run", p, pid)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}
