package dist

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/beep"
	"repro/internal/core"
)

// loop drives the per-round exchange until stabilization (or the fixed
// round target), recovering from worker deaths by rewinding everyone to
// the shadow's round.
func (co *coordinator) loop(ctx context.Context) error {
	cfg := &co.cfg
	startRound := co.shadow.Round()
	r := startRound
	budget := cfg.MaxRounds
	if budget == 0 {
		budget = core.DefaultMaxRounds(co.g.N())
	}
	digests := make([]uint64, len(co.clients))
	var probe core.State

	// rewind routes a dead-worker signal through recovery and resets
	// the round cursor to the restored shadow round.
	rewind := func(err error) (bool, error) {
		if !errors.Is(err, errNeedRecovery) {
			return false, err
		}
		if rerr := co.recoverWorkers(ctx); rerr != nil {
			return false, rerr
		}
		r = co.shadow.Round()
		return true, nil
	}

	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %v", ErrCanceled, context.Cause(ctx))
		}
		if cfg.FixedRounds > 0 && r >= cfg.FixedRounds {
			break
		}
		if cfg.FixedRounds == 0 && r-startRound >= budget {
			return fmt.Errorf("%w after %d rounds", ErrBudget, r-startRound)
		}
		if cfg.RoundDelay > 0 {
			select {
			case <-time.After(cfg.RoundDelay):
			case <-ctx.Done():
				return fmt.Errorf("%w: %v", ErrCanceled, context.Cause(ctx))
			}
		}
		round := r + 1

		// EMIT: every worker runs its range's emit kernel and uploads
		// its changed words plus the drew flag.
		errs := co.broadcast(nil, fEmit, fEmitOK, func(int) []byte { return encodeRound(round) })
		if err := co.classify(errs); err != nil {
			if retried, rerr := rewind(err); rerr != nil {
				return rerr
			} else if retried {
				continue
			}
			return err
		}
		// Delta merge: a changed per-partition word re-merges by OR over
		// the word's owners; only words whose MERGED value moved enter
		// the dirty set (a boundary flip shadowed by the adjacent owner
		// travels no further).
		anyDrew := false
		for p := range co.clients {
			gotRound, drew, err := decodeEmitOKSparse(co.replies[p], co.channels, co.table.words, func(c, wi int, w uint64) {
				cw := co.cur[p][c]
				if cw[wi] == w {
					return
				}
				cw[wi] = w
				var m uint64
				for _, q := range co.owners[wi] {
					m |= co.cur[q][c][wi]
				}
				if co.merged[c][wi] != m {
					co.merged[c][wi] = m
					co.dirty[c][wi>>6] |= 1 << uint(wi&63)
				}
			})
			if err != nil {
				return &WorkerError{Part: p, Msg: err.Error()}
			}
			if gotRound != round {
				return &WorkerError{Part: p, Msg: fmt.Sprintf("emit reply for round %d, want %d", gotRound, round)}
			}
			anyDrew = anyDrew || drew
			co.res.WireBytes += int64(len(co.replies[p]))
		}

		// DELIVER: every worker receives the changed merged words
		// covering its neighborhoods, gathers, updates, and reports
		// (changed, digest).
		payloads := make([][]byte, len(co.clients))
		for p := range co.clients {
			payloads[p] = co.deliverPayload(round, p)
			co.res.WireBytes += int64(len(payloads[p]))
		}
		errs = co.broadcast(nil, fDeliver, fDeliverOK, func(p int) []byte { return payloads[p] })
		if err := co.classify(errs); err != nil {
			if retried, rerr := rewind(err); rerr != nil {
				return rerr
			} else if retried {
				continue
			}
			return err
		}
		anyChanged := false
		for p := range co.clients {
			gotRound, changed, d, err := decodeDeliverOK(co.replies[p])
			if err != nil {
				return &WorkerError{Part: p, Msg: err.Error()}
			}
			if gotRound != round {
				return &WorkerError{Part: p, Msg: fmt.Sprintf("deliver reply for round %d, want %d", gotRound, round)}
			}
			anyChanged = anyChanged || changed
			digests[p] = d
		}
		// Every worker consumed this round's deltas; the merged words are
		// the new shared baseline.
		for c := 0; c < co.channels; c++ {
			for i := range co.dirty[c] {
				co.dirty[c][i] = 0
			}
		}
		hash := CombineDigests(round, digests)
		if idx := round - startRound - 1; idx == len(co.res.RoundHashes) {
			co.res.RoundHashes = append(co.res.RoundHashes, hash)
		} else {
			// A recovered round re-executes; determinism makes the
			// digest identical, but record what actually ran.
			co.res.RoundHashes[idx] = hash
		}
		if cfg.Observer != nil {
			cfg.Observer(round, hash)
		}
		r = round

		// Synchronized checkpoint cadence: the recovery anchor.
		if cfg.CheckpointEvery > 0 && (round-startRound)%cfg.CheckpointEvery == 0 {
			if err := co.checkpointNow(round); err != nil {
				if retried, rerr := rewind(err); rerr != nil {
					return rerr
				} else if retried {
					continue
				}
				return err
			}
		}

		// Stop detection: a round in which nobody drew and nobody
		// changed means the previous configuration is a fixed point;
		// probe it for MIS legality. (A non-legal fixed point keeps
		// looping and falls to the budget.)
		if cfg.FixedRounds == 0 && !anyDrew && !anyChanged {
			if err := co.collect(round); err != nil {
				if retried, rerr := rewind(err); rerr != nil {
					return rerr
				} else if retried {
					continue
				}
				return err
			}
			if err := probe.Refresh(co.shadow); err != nil {
				return fmt.Errorf("dist: %w", err)
			}
			if probe.Stabilized() {
				if err := probe.VerifyMIS(); err != nil {
					return fmt.Errorf("dist: stabilized configuration failed verification: %w", err)
				}
				co.res.Stabilized = true
				co.res.StabilizedRound = round - 1
				co.setMIS(&probe)
				break
			}
		}
	}
	co.res.Rounds = r

	if co.cfg.FixedRounds > 0 {
		// Fixed-round runs still report legality and state at the end.
		if err := co.collect(r); err != nil {
			if errors.Is(err, errNeedRecovery) {
				// Workers died after the last round completed; the run's
				// results are already determined, so don't revive anyone
				// just for the export.
				return fmt.Errorf("%w: worker died during final state collection", ErrWorkerLost)
			}
			return err
		}
		if err := probe.Refresh(co.shadow); err != nil {
			return fmt.Errorf("dist: %w", err)
		}
		if probe.Stabilized() && probe.VerifyMIS() == nil {
			co.res.Stabilized = true
			co.setMIS(&probe)
		}
	}
	cp, err := co.shadow.Checkpoint()
	if err != nil {
		return fmt.Errorf("dist: final checkpoint: %w", err)
	}
	co.res.LastCheckpoint = cp
	return nil
}

// setMIS records the probe's MIS in the result.
func (co *coordinator) setMIS(probe *core.State) {
	co.res.MIS = probe.MISMask()
	co.res.MISSize = 0
	for _, in := range co.res.MIS {
		if in {
			co.res.MISSize++
		}
	}
}

// deliverPayload builds partition p's deliver delta: the dirty merged
// words intersected with p's need set, as per-channel (index, value)
// pairs. The scratch lists are reused across partitions — the encoder
// copies them into the payload before the next call.
func (co *coordinator) deliverPayload(round, p int) []byte {
	ns := co.table.need[p]
	return encodeDeliverSparse(round, co.channels, func(c int) ([]int32, []uint64) {
		wis, vals := co.downWi[c][:0], co.downVal[c][:0]
		d := co.dirty[c]
		for i, dw := range d {
			m := dw & ns[i]
			for m != 0 {
				b := bits.TrailingZeros64(m)
				m &= m - 1
				wi := i<<6 + b
				wis = append(wis, int32(wi))
				vals = append(vals, co.merged[c][wi])
			}
		}
		co.downWi[c], co.downVal[c] = wis, vals
		return wis, vals
	})
}

// checkpointNow is the synchronized checkpoint cadence: it brings the
// shadow to round and, with a checkpoint path, persists one chain tick
// of it — a base or a delta, per the chain writer's compaction policy.
// A dead worker surfaces from the collection before anything is
// installed or written, and the recovery it triggers restores every
// worker, so a partially collected tick never reaches the chain.
func (co *coordinator) checkpointNow(round int) error {
	if err := co.collect(round); err != nil {
		return err
	}
	kind, nbytes := "memory", 0
	if co.chain != nil {
		var err error
		if kind, nbytes, err = co.chain.Tick(co.shadow); err != nil {
			return fmt.Errorf("dist: persist checkpoint: %w", err)
		}
	}
	co.logf("checkpoint at round %d (%d workers, %s, %d bytes)", round, len(co.clients), kind, nbytes)
	return nil
}

// collect gathers every worker's state rows dirtied since its previous
// export (its full range after a restore) and installs them into the
// shadow at round. It is all-or-nothing: a dead worker surfaces before
// the first install, and every reply is validated (round, ascending
// vertices inside the worker's range, lengths, no trailing bytes)
// before the first install. A machine rejecting its row fails the run.
// A shadow already at round has nothing to collect.
func (co *coordinator) collect(round int) error {
	if co.shadow.Round() == round {
		return nil
	}
	errs := co.broadcast(nil, fStateDelta, fStateDeltaOK, func(int) []byte { return encodeRound(round) })
	if err := co.classify(errs); err != nil {
		return err
	}
	rows := make([]*beep.StateRows, len(co.clients))
	for p := range co.clients {
		r, err := decodeStateReply(co.replies[p], round, co.table.ranges[p])
		if err != nil {
			return &WorkerError{Part: p, Msg: err.Error()}
		}
		rows[p] = r
	}
	for p, r := range rows {
		if err := co.shadow.InstallRows(round, r); err != nil {
			return &WorkerError{Part: p, Msg: err.Error()}
		}
	}
	return nil
}
