package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"repro/internal/beep"
	"repro/internal/ckpt"
	"repro/internal/core"
)

// defaultBudget mirrors the stab supervisor's round budget: generous
// multiples of the O(log n) expected stabilization time.
func defaultBudget(n int) int {
	log := 0
	for x := n; x > 1; x >>= 1 {
		log++
	}
	return 1000*(log+1) + 1000
}

// loop drives the per-round exchange until stabilization (or the fixed
// round target), recovering from worker deaths by rewinding everyone to
// the last synchronized checkpoint.
func (co *coordinator) loop(ctx context.Context) error {
	cfg := &co.cfg
	startRound := co.lastCP.Round
	r := startRound
	budget := cfg.MaxRounds
	if budget == 0 {
		budget = defaultBudget(co.g.N())
	}
	digests := make([]uint64, len(co.clients))

	// rewind routes a dead-worker signal through recovery and resets
	// the round cursor to the restored checkpoint.
	rewind := func(err error) (bool, error) {
		if !errors.Is(err, errNeedRecovery) {
			return false, err
		}
		if rerr := co.recoverWorkers(ctx); rerr != nil {
			return false, rerr
		}
		r = co.lastCP.Round
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
			states, err := co.collectStates(round)
			if err != nil {
				if retried, rerr := rewind(err); rerr != nil {
					return rerr
				} else if retried {
					continue
				}
				return err
			}
			probe := co.buildProbe(states)
			if probe.Stabilized() {
				if err := probe.VerifyMIS(); err != nil {
					return fmt.Errorf("dist: stabilized configuration failed verification: %w", err)
				}
				co.res.Stabilized = true
				co.res.StabilizedRound = round - 1
				co.res.MIS = probe.MISMask()
				for _, in := range co.res.MIS {
					if in {
						co.res.MISSize++
					}
				}
				co.finalCheckpoint(round, states)
				break
			}
		}
	}
	co.res.Rounds = r

	if co.cfg.FixedRounds > 0 {
		// Fixed-round runs still report legality and state at the end.
		states, err := co.collectStates(r)
		if err != nil {
			if errors.Is(err, errNeedRecovery) {
				// Workers died after the last round completed; the run's
				// results are already determined, so don't revive anyone
				// just for the export.
				return fmt.Errorf("%w: worker died during final state collection", ErrWorkerLost)
			}
			return err
		}
		probe := co.buildProbe(states)
		if probe.Stabilized() && probe.VerifyMIS() == nil {
			co.res.Stabilized = true
			co.res.MIS = probe.MISMask()
			for _, in := range co.res.MIS {
				if in {
					co.res.MISSize++
				}
			}
		}
		co.finalCheckpoint(r, states)
	}
	co.sealLastCP()
	co.res.LastCheckpoint = co.lastCP
	return nil
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

// collectStates gathers every worker's range state at the given round.
func (co *coordinator) collectStates(round int) ([]stateMsg, error) {
	errs := co.broadcast(nil, fState, fStateOK, func(int) []byte { return encodeRound(round) })
	if err := co.classify(errs); err != nil {
		return nil, err
	}
	states := make([]stateMsg, len(co.clients))
	for p := range co.clients {
		var st stateMsg
		if err := json.Unmarshal(co.replies[p], &st); err != nil {
			return nil, &WorkerError{Part: p, Msg: fmt.Sprintf("state reply: %v", err)}
		}
		r := co.table.ranges[p]
		span := r[1] - r[0]
		if st.Round != round || len(st.Machines) != span || len(st.Streams) != span ||
			len(st.Levels) != span || len(st.Caps) != span {
			return nil, &WorkerError{Part: p, Msg: fmt.Sprintf(
				"state reply shape: round %d (want %d), %d/%d/%d/%d entries (want %d)",
				st.Round, round, len(st.Machines), len(st.Streams), len(st.Levels), len(st.Caps), span)}
		}
		states[p] = st
	}
	return states, nil
}

// buildProbe assembles the workers' level exports into a legality
// checker over the full graph.
func (co *coordinator) buildProbe(states []stateMsg) *core.State {
	n := co.g.N()
	levels := make([]int32, n)
	caps := make([]int32, n)
	for p, st := range states {
		r := co.table.ranges[p]
		copy(levels[r[0]:r[1]], st.Levels)
		copy(caps[r[0]:r[1]], st.Caps)
	}
	return core.NewStateWith(co.g, levels, caps, co.two)
}

// assembleCheckpoint splices the workers' range states into a sealed
// full checkpoint. The identity header and allocator/fault stream
// fields are invariant across rounds, so the previous checkpoint is the
// template.
func (co *coordinator) assembleCheckpoint(round int, states []stateMsg) *beep.Checkpoint {
	cp := *co.lastCP
	cp.Round = round
	cp.Machines = make([][]int64, cp.GraphN)
	cp.Streams = make([][4]uint64, cp.GraphN)
	for p, st := range states {
		r := co.table.ranges[p]
		copy(cp.Machines[r[0]:r[1]], st.Machines)
		copy(cp.Streams[r[0]:r[1]], st.Streams)
	}
	cp.Seal()
	return &cp
}

// checkpointNow advances the recovery anchor incrementally: every
// worker uploads the state of exactly the slab words its range dirtied
// since the previous collection (its full range right after a restore),
// the coordinator patches the anchor vertex-granularly, and — when a
// checkpoint path is configured — persists either a base snapshot or a
// delta link chained to it, per the chain writer's compaction policy.
// Collection is all-or-nothing: a dead worker surfaces before the first
// patch, and the recovery it triggers restores every worker (marking
// everything dirty again), so a partially collected tick can never leak
// into the chain.
func (co *coordinator) checkpointNow(round int) error {
	deltas, err := co.collectStateDeltas(round)
	if err != nil {
		return err
	}
	dirtyWords := make(map[int32]struct{})
	cp := co.lastCP
	for _, sd := range deltas {
		for i, v := range sd.Verts {
			cp.Machines[v] = sd.Machines[i]
			cp.Streams[v] = sd.Streams[i]
			dirtyWords[v>>6] = struct{}{}
		}
	}
	cp.Round = round
	co.lastCPSealed = false
	co.lastCPBytes = nil

	kind := "memory"
	nbytes := 0
	if co.cfg.CheckpointPath != "" {
		if co.chain == nil {
			co.chain = ckpt.NewWriter(co.cfg.CheckpointPath)
		}
		if co.chain.NeedsBase(false, len(dirtyWords), co.totalWords) {
			co.sealLastCP()
			if nbytes, err = co.chain.WriteBase(cp); err != nil {
				return fmt.Errorf("dist: persist checkpoint: %w", err)
			}
			kind = "base"
		} else {
			d := co.buildDelta(round, dirtyWords)
			if nbytes, err = co.chain.AppendDelta(d); err != nil {
				return fmt.Errorf("dist: persist checkpoint: %w", err)
			}
			kind = "delta"
		}
	}
	co.logf("checkpoint at round %d (%d workers, %d dirty words, %s, %d bytes)",
		round, len(co.clients), len(dirtyWords), kind, nbytes)
	return nil
}

// collectStateDeltas gathers every worker's incremental range state at
// the given round, validating all replies before returning any.
func (co *coordinator) collectStateDeltas(round int) ([]stateDeltaMsg, error) {
	errs := co.broadcast(nil, fStateDelta, fStateDeltaOK, func(int) []byte { return encodeRound(round) })
	if err := co.classify(errs); err != nil {
		return nil, err
	}
	n := co.g.N()
	deltas := make([]stateDeltaMsg, len(co.clients))
	for p := range co.clients {
		var sd stateDeltaMsg
		if err := json.Unmarshal(co.replies[p], &sd); err != nil {
			return nil, &WorkerError{Part: p, Msg: fmt.Sprintf("state delta reply: %v", err)}
		}
		r := co.table.ranges[p]
		if sd.Round != round || len(sd.Machines) != len(sd.Verts) || len(sd.Streams) != len(sd.Verts) {
			return nil, &WorkerError{Part: p, Msg: fmt.Sprintf(
				"state delta shape: round %d (want %d), %d verts / %d machines / %d streams",
				sd.Round, round, len(sd.Verts), len(sd.Machines), len(sd.Streams))}
		}
		prev := int32(-1)
		for _, v := range sd.Verts {
			if v <= prev || int(v) < r[0] || int(v) >= r[1] || int(v) >= n {
				return nil, &WorkerError{Part: p, Msg: fmt.Sprintf(
					"state delta vertex %d outside ascending range [%d, %d)", v, r[0], r[1])}
			}
			prev = v
		}
		deltas[p] = sd
	}
	return deltas, nil
}

// buildDelta assembles the persistable delta link for the given dirty
// word set, reading the word-complete vertex states from the freshly
// patched anchor (vertices of a dirty word that no worker re-uploaded
// are unchanged, so the anchor's rows are exact). The auxiliary RNG and
// allocator fields are invariant in a partitioned run (Partition
// rejects the fault models that would advance them).
func (co *coordinator) buildDelta(round int, dirtyWords map[int32]struct{}) *beep.Delta {
	cp := co.lastCP
	wis := make([]int32, 0, len(dirtyWords))
	for wi := range dirtyWords {
		wis = append(wis, wi)
	}
	sort.Slice(wis, func(i, j int) bool { return wis[i] < wis[j] })
	d := &beep.Delta{
		GraphFingerprint: cp.GraphFingerprint,
		Protocol:         cp.Protocol,
		Round:            round,
		ParentHash:       co.chain.ParentHash(),
		Words:            wis,
		NoiseRNG:         cp.NoiseRNG,
		SleepRNG:         cp.SleepRNG,
		AdvRNG:           cp.AdvRNG,
		RootRNG:          cp.RootRNG,
		NextStream:       cp.NextStream,
		AdvEpoch:         cp.AdvEpoch,
	}
	n := cp.GraphN
	for _, wi := range wis {
		lo, hi := int(wi)*64, int(wi)*64+64
		if hi > n {
			hi = n
		}
		for v := lo; v < hi; v++ {
			d.Machines = append(d.Machines, cp.Machines[v])
			d.Streams = append(d.Streams, cp.Streams[v])
		}
	}
	d.Seal()
	return d
}

// finalCheckpoint installs an assembled checkpoint as the current
// anchor without persisting it.
func (co *coordinator) finalCheckpoint(round int, states []stateMsg) {
	cp := co.assembleCheckpoint(round, states)
	co.lastCP = cp
	co.lastCPSealed = true
	co.lastCPBytes = nil
}

// encodeCheckpoint serializes a sealed checkpoint into the fRestore
// payload (the v3 binary snapshot; workers auto-detect the format).
func encodeCheckpoint(cp *beep.Checkpoint) ([]byte, error) {
	b, err := beep.EncodeSnapshot(cp)
	if err != nil {
		return nil, fmt.Errorf("dist: encode checkpoint: %w", err)
	}
	return b, nil
}
