package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
)

// WorkerConfig configures one partition worker.
type WorkerConfig struct {
	// Addr is the coordinator's listen address to dial.
	Addr string
	// Part is the partition index the worker announces in its join.
	Part int
	// Token authenticates the join against the coordinator's run.
	Token string
	// Fault, when enabled, injects the plan on the worker's side of the
	// connection (tests use it to model slow or lossy workers).
	Fault FaultPlan
	// DialTimeout bounds the connect (default 10s).
	DialTimeout time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// workerState is the request-processing state machine: the worker only
// ever executes a phase once per round; duplicate requests (retransmits,
// wire duplicates) are answered from the cached reply, stale ones are
// dropped, and a request from a round the worker cannot reach is a
// protocol desync answered with a typed error frame — the coordinator
// resolves it by restoring everyone from the last checkpoint.
type workerState struct {
	net  *beep.Network
	part *beep.Partition
	lo   int
	hi   int
	cfg  configMsg
	// words bounds delta word indices on decode.
	words int

	emittedRound int
	updatedRound int
	emitReply    []byte
	deliverReply []byte
	// stateDeltaRound/stateDeltaReply cache the state-row export:
	// AppendDirtyRows rebaselines, so a retransmitted fStateDelta must
	// be answered from the cache, never re-exported.
	stateDeltaRound int
	stateDeltaReply []byte
}

// RunWorker dials the coordinator, serves its partition until the
// connection closes (coordinator shutdown, recovery respawn, or ctx
// cancellation), and returns. A nil error means an orderly shutdown
// frame was received; connection loss is returned as an error so
// process wrappers can exit non-zero.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dialTimeout := cfg.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", cfg.Addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("dist: worker %d: dial %s: %w", cfg.Part, cfg.Addr, err)
	}
	// ctx cancellation force-closes the conn, unblocking any read; the
	// serve loop then returns.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()

	t := wrapFaults(newFrameConn(conn), cfg.Fault, uint64(cfg.Part)+0x77)
	defer t.close()

	join, _ := json.Marshal(joinMsg{Part: cfg.Part, Token: cfg.Token})
	if err := t.send(frame{Type: fJoin, Seq: 0, Payload: join}); err != nil {
		return fmt.Errorf("dist: worker %d: join: %w", cfg.Part, err)
	}

	var ws *workerState
	for {
		f, err := t.recv(time.Time{})
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("dist: worker %d: canceled: %w", cfg.Part, context.Cause(ctx))
			}
			return fmt.Errorf("dist: worker %d: connection lost: %w", cfg.Part, err)
		}
		reply, done := handleFrame(&ws, cfg.Part, f, logf)
		if reply != nil {
			if err := t.send(*reply); err != nil {
				return fmt.Errorf("dist: worker %d: reply: %w", cfg.Part, err)
			}
		}
		if done {
			logf("worker %d: shutdown", cfg.Part)
			return nil
		}
	}
}

// handleFrame processes one request and returns the reply frame (nil =
// stale duplicate, silently dropped) and whether to shut down.
func handleFrame(wsp **workerState, part int, f frame, logf func(string, ...any)) (*frame, bool) {
	ws := *wsp
	fail := func(format string, args ...any) (*frame, bool) {
		fr := errFrame(f.Seq, format, args...)
		return &fr, false
	}
	switch f.Type {
	case fConfig:
		st, err := newWorkerState(f.Payload)
		if err != nil {
			return fail("worker %d: config: %v", part, err)
		}
		*wsp = st
		logf("worker %d: configured range [%d, %d)", part, st.lo, st.hi)
		return &frame{Type: fConfigOK, Seq: f.Seq}, false
	case fPing:
		return &frame{Type: fPong, Seq: f.Seq, Payload: f.Payload}, false
	case fShutdown:
		return &frame{Type: fBye, Seq: f.Seq}, true
	}
	if ws == nil {
		return fail("worker %d: %v before config", part, f.Type)
	}
	switch f.Type {
	case fRestore:
		cp, err := beep.DecodeSnapshot(f.Payload)
		if err != nil {
			return fail("worker %d: restore: %v", part, err)
		}
		if err := ws.net.Restore(cp); err != nil {
			return fail("worker %d: restore: %v", part, err)
		}
		// The restored state invalidates every delta baseline — the
		// coordinator zeroes its side in the same recovery — and Restore
		// marks every row dirty: the next fStateDelta covers the full
		// range.
		ws.part.ResetSparse()
		ws.emittedRound, ws.updatedRound = cp.Round, cp.Round
		ws.emitReply, ws.deliverReply = nil, nil
		ws.stateDeltaRound, ws.stateDeltaReply = -1, nil
		logf("worker %d: restored at round %d", part, cp.Round)
		return &frame{Type: fRestoreOK, Seq: f.Seq, Payload: encodeRound(cp.Round)}, false

	case fEmit:
		r, err := decodeRound(f.Payload)
		if err != nil {
			return fail("worker %d: emit: %v", part, err)
		}
		switch {
		case r == ws.updatedRound+1 && r == ws.emittedRound:
			// Retransmit of the round we already emitted.
			return &frame{Type: fEmitOK, Seq: f.Seq, Payload: ws.emitReply}, false
		case r == ws.updatedRound+1:
			drew, err := ws.part.EmitLocalSparse()
			if err != nil {
				return fail("worker %d: emit round %d: %v", part, r, err)
			}
			ws.emitReply = encodeEmitOKSparse(r, drew, ws.cfg.Channels, ws.part.SparseUpload)
			ws.emittedRound = r
			return &frame{Type: fEmitOK, Seq: f.Seq, Payload: ws.emitReply}, false
		case r <= ws.updatedRound:
			return nil, false // stale duplicate
		default:
			return fail("worker %d: emit round %d out of sync (updated %d)", part, r, ws.updatedRound)
		}

	case fDeliver:
		if len(f.Payload) < 4 {
			return fail("worker %d: deliver: short payload", part)
		}
		round := int(binary.LittleEndian.Uint32(f.Payload))
		switch {
		case round == ws.updatedRound:
			// Retransmit of a completed round: reply from cache, leave
			// the partition's word state untouched.
			if ws.deliverReply == nil {
				return fail("worker %d: deliver round %d after restore, no cached reply", part, round)
			}
			return &frame{Type: fDeliverOK, Seq: f.Seq, Payload: ws.deliverReply}, false
		case round == ws.emittedRound && round == ws.updatedRound+1:
			if _, err := decodeDeliverSparse(f.Payload, ws.cfg.Channels, ws.words, ws.part.ApplyDeltaWord); err != nil {
				return fail("worker %d: deliver: %v", part, err)
			}
			changed, err := ws.part.UpdateLocalSparse()
			if err != nil {
				return fail("worker %d: update round %d: %v", part, round, err)
			}
			sent, heard := ws.part.Signals()
			digest := beep.RoundDigest(round, ws.lo, len(sent), sent[ws.lo:ws.hi], heard[ws.lo:ws.hi])
			ws.updatedRound = round
			ws.deliverReply = encodeDeliverOK(round, changed, digest)
			return &frame{Type: fDeliverOK, Seq: f.Seq, Payload: ws.deliverReply}, false
		case round < ws.updatedRound:
			return nil, false
		default:
			return fail("worker %d: deliver round %d out of sync (emitted %d, updated %d)",
				part, round, ws.emittedRound, ws.updatedRound)
		}

	case fStateDelta:
		r, err := decodeRound(f.Payload)
		if err != nil {
			return fail("worker %d: state delta: %v", part, err)
		}
		if r == ws.stateDeltaRound && ws.stateDeltaReply != nil {
			// Retransmit: the export already rebaselined; replay the
			// cached reply.
			return &frame{Type: fStateDeltaOK, Seq: f.Seq, Payload: ws.stateDeltaReply}, false
		}
		if r != ws.updatedRound {
			return fail("worker %d: state delta at round %d out of sync (updated %d)", part, r, ws.updatedRound)
		}
		reply, err := ws.part.AppendDirtyRows(encodeRound(r))
		if err != nil {
			return fail("worker %d: state delta: %v", part, err)
		}
		ws.stateDeltaRound, ws.stateDeltaReply = r, reply
		return &frame{Type: fStateDeltaOK, Seq: f.Seq, Payload: reply}, false
	}
	return nil, false // unknown frame type: ignore
}

// newWorkerState builds the worker's network and partition from a
// config payload.
func newWorkerState(payload []byte) (*workerState, error) {
	var cfg configMsg
	if err := json.Unmarshal(payload, &cfg); err != nil {
		return nil, err
	}
	g, err := graph.ReadEdgeList(bytes.NewReader(cfg.Graph))
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	proto, err := core.ProtocolByName(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	if proto.Channels() != cfg.Channels {
		return nil, fmt.Errorf("protocol %s has %d channels, config says %d", cfg.Protocol, proto.Channels(), cfg.Channels)
	}
	net, err := beep.NewNetwork(g, proto, cfg.Seed)
	if err != nil {
		return nil, err
	}
	part, err := net.Partition(cfg.Lo, cfg.Hi)
	if err != nil {
		net.Close()
		return nil, err
	}
	return &workerState{
		net: net, part: part, lo: cfg.Lo, hi: cfg.Hi, cfg: cfg,
		words: (g.N() + 63) / 64, stateDeltaRound: -1,
	}, nil
}
