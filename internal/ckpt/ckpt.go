// Package ckpt stores checkpoints as base + delta chains on disk: a
// full binary snapshot at <path> plus a sidecar <path>.delta holding
// framed incremental deltas appended since that base. The pair is the
// durable form of the engine's incremental checkpoints (beep.Delta):
// steady-state durability costs O(dirty words) per cadence tick, and a
// resume replays base + chain to the exact state a full snapshot would
// have held.
//
// Crash ordering. WriteBase truncates the delta sidecar BEFORE
// atomically replacing the base: a crash between the two steps leaves
// a valid (older) base with no deltas — a consistent, merely earlier,
// resume point. The reverse order could pair a new base with stale
// deltas that do not chain from it. Delta appends are fsynced whole
// frames; a crash mid-append leaves a torn tail that Load detects by
// frame length and discards — the chain up to the last complete frame
// is intact by construction.
//
// Chain validation. Load verifies everything before handing state to
// the caller: the base's integrity hash, every delta frame's own hash,
// the parent linkage (each delta's ParentHash must equal the hash of
// the state assembled so far) and round monotonicity. Any complete-
// but-invalid link is a hard error naming the link; no partially
// patched state is ever returned.
//
// Ticks. Writer.Tick takes one cadence checkpoint of a network — a base
// or a delta, per the compaction policy below — and keeps the chain tip
// in memory. The supervisor, the chaos harness and the distributed
// coordinator all checkpoint through it; WriteBase and AppendDelta stay
// exported for callers that time the two halves of a tick separately.
//
// Compaction. The writer starts a fresh base — collapsing the chain —
// whenever the engine reports everything dirty, the accumulated chain
// reaches CompactEvery links, or the delta would cover at least half
// the words (at that size a base costs about the same and resets the
// replay length). See NeedsBase.
package ckpt

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/atomicio"
	"repro/internal/beep"
)

// CompactEvery is the chain-length bound: once this many deltas have
// accumulated on a base, the next checkpoint is a fresh base. It caps
// both resume replay time and the sidecar's unbounded growth.
const CompactEvery = 64

// DeltaSuffix is appended to the base path to name the delta sidecar.
const DeltaSuffix = ".delta"

// Writer maintains one base + delta chain. It is not safe for
// concurrent use; the single supervisor/coordinator goroutine owns it.
type Writer struct {
	path       string
	deltaFile  *os.File
	haveBase   bool
	parentHash uint64
	deltas     int
	// tip is the checkpoint at the chain tip when the chain was written
	// by Tick: the base it wrote, patched by every delta since and
	// resealed lazily by Tip (tipSealed false after a patch).
	tip       *beep.Checkpoint
	tipSealed bool
}

// NewWriter creates a chain writer for path. The writer carries no
// state across processes: the first checkpoint it writes is always a
// base (callers resuming from an existing chain re-baseline anyway —
// a restored network reports DirtyAll).
func NewWriter(path string) *Writer {
	return &Writer{path: path}
}

// NeedsBase applies the compaction policy: write a base when no base
// exists yet this process, when the engine reports everything dirty,
// when the chain has reached CompactEvery links, or when the delta
// would cover at least half the slab words.
func (w *Writer) NeedsBase(dirtyAll bool, dirtyWords, totalWords int) bool {
	if !w.haveBase || dirtyAll || w.deltas >= CompactEvery {
		return true
	}
	return 2*dirtyWords >= totalWords
}

// ParentHash returns the integrity hash of the chain tip: the value
// the next delta must be captured against (beep.CheckpointDelta's
// parentHash argument).
func (w *Writer) ParentHash() uint64 { return w.parentHash }

// Deltas returns the number of chain links since the last base.
func (w *Writer) Deltas() int { return w.deltas }

// Tick takes one checkpoint of net at the caller's cadence: a base
// snapshot when NeedsBase asks for one (net.Checkpoint + WriteBase),
// otherwise a delta of the words dirtied since the previous tick,
// chained to the tip (net.CheckpointDelta + AppendDelta). It returns the
// kind written ("base" or "delta") and its size in bytes, and keeps the
// tip in memory for Tip. Every durable checkpoint of the supervisor, the
// chaos harness and the distributed coordinator is taken here.
func (w *Writer) Tick(net *beep.Network) (kind string, nbytes int, err error) {
	if w.NeedsBase(net.DirtyAll(), net.DirtyWords(), (net.N()+63)/64) {
		cp, err := net.Checkpoint()
		if err != nil {
			return "", 0, fmt.Errorf("ckpt: tick: %w", err)
		}
		if nbytes, err = w.WriteBase(cp); err != nil {
			return "", 0, err
		}
		w.tip, w.tipSealed = cp, true
		return "base", nbytes, nil
	}
	d, err := net.CheckpointDelta(w.parentHash)
	if err != nil {
		return "", 0, fmt.Errorf("ckpt: tick: %w", err)
	}
	tip := w.tip
	if nbytes, err = w.AppendDelta(d); err != nil {
		return "", 0, err
	}
	if tip != nil {
		if err := beep.ApplyDelta(tip, d); err != nil {
			return "", 0, fmt.Errorf("ckpt: tick: patch tip: %w", err)
		}
		w.tip, w.tipSealed = tip, false
	}
	return "delta", nbytes, nil
}

// Tip returns the sealed checkpoint at the chain tip, or nil when the
// chain was not written by Tick since its last base. Resealing is an
// O(n) pass, so it happens here, once per read, not per delta.
func (w *Writer) Tip() *beep.Checkpoint {
	if w.tip != nil && !w.tipSealed {
		w.tip.Seal()
		w.tipSealed = true
	}
	return w.tip
}

// WriteBase persists c as a fresh base, collapsing any existing chain.
// The delta sidecar is truncated first (see the crash-ordering note in
// the package comment). Returns the encoded size in bytes.
func (w *Writer) WriteBase(c *beep.Checkpoint) (int, error) {
	if w.deltaFile != nil {
		w.deltaFile.Close()
		w.deltaFile = nil
	}
	if err := os.Remove(w.path + DeltaSuffix); err != nil && !os.IsNotExist(err) {
		return 0, fmt.Errorf("ckpt: truncate delta chain: %w", err)
	}
	buf, err := beep.EncodeSnapshot(c)
	if err != nil {
		return 0, fmt.Errorf("ckpt: write base: %w", err)
	}
	if err := atomicio.WriteFileBytes(w.path, buf); err != nil {
		return 0, fmt.Errorf("ckpt: write base: %w", err)
	}
	w.haveBase = true
	w.parentHash = c.Hash
	w.deltas = 0
	w.tip = nil
	return len(buf), nil
}

// AppendDelta appends one sealed delta frame to the chain and fsyncs
// it. The delta must chain from the current tip. Returns the frame
// size in bytes.
func (w *Writer) AppendDelta(d *beep.Delta) (int, error) {
	if !w.haveBase {
		return 0, errors.New("ckpt: append delta with no base written")
	}
	if d.ParentHash != w.parentHash {
		return 0, fmt.Errorf("ckpt: delta parent hash %#x does not chain from tip %#x", d.ParentHash, w.parentHash)
	}
	frame, err := beep.EncodeDelta(d)
	if err != nil {
		return 0, fmt.Errorf("ckpt: append delta: %w", err)
	}
	if w.deltaFile == nil {
		f, err := os.OpenFile(w.path+DeltaSuffix, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return 0, fmt.Errorf("ckpt: append delta: %w", err)
		}
		w.deltaFile = f
	}
	if _, err := w.deltaFile.Write(frame); err != nil {
		return 0, fmt.Errorf("ckpt: append delta: %w", err)
	}
	if err := w.deltaFile.Sync(); err != nil {
		return 0, fmt.Errorf("ckpt: sync delta chain: %w", err)
	}
	w.parentHash = d.Hash
	w.deltas++
	w.tip = nil
	return len(frame), nil
}

// Close releases the delta sidecar handle. The chain on disk stays
// valid; a new writer over the same path starts with a fresh base.
func (w *Writer) Close() error {
	if w.deltaFile != nil {
		err := w.deltaFile.Close()
		w.deltaFile = nil
		return err
	}
	return nil
}

// ChainInfo describes a loaded chain.
type ChainInfo struct {
	// BaseBytes is the size of the base file; BaseFormat is "v3-binary"
	// or "v2-json".
	BaseBytes  int64
	BaseFormat string
	// Deltas is the number of valid chain links applied; DeltaBytes the
	// sidecar bytes they span.
	Deltas     int
	DeltaBytes int64
	// TornTail reports a truncated trailing frame (a crash mid-append),
	// discarded as permitted by the append protocol.
	TornTail bool
	// Round and Hash describe the assembled checkpoint.
	Round int
	Hash  uint64
}

// Load reads the base at path, validates and applies any delta chain
// in the sidecar, and returns the assembled (sealed, validated)
// checkpoint. The base may be in either snapshot format (v3 binary or
// v2 JSON, auto-detected). A torn trailing frame is discarded; any
// complete-but-invalid link — bad frame, failed hash, broken parent
// linkage, non-monotonic round — is a hard error naming the link, and
// no state is returned.
func Load(path string) (*beep.Checkpoint, *ChainInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	base, err := beep.DecodeCheckpointAuto(data)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: base %s: %w", path, err)
	}
	info := &ChainInfo{BaseBytes: int64(len(data)), BaseFormat: "v3-binary"}
	if len(data) > 0 && data[0] != 'B' {
		info.BaseFormat = "v2-json"
	}

	chain, err := os.ReadFile(path + DeltaSuffix)
	if err != nil {
		if os.IsNotExist(err) {
			info.Round, info.Hash = base.Round, base.Hash
			return base, info, nil
		}
		return nil, nil, fmt.Errorf("ckpt: delta chain: %w", err)
	}
	info.DeltaBytes = int64(len(chain))

	// Parse and validate the whole chain before applying anything:
	// every frame's own hash, the parent linkage and round monotonicity.
	var deltas []*beep.Delta
	tip := base.Hash
	round := base.Round
	rest := chain
	for len(rest) > 0 {
		d, next, err := beep.DecodeDeltaFrame(rest)
		if err != nil {
			if errors.Is(err, beep.ErrTornFrame) {
				// Crash mid-append: the chain up to here is complete.
				info.TornTail = true
				break
			}
			return nil, nil, fmt.Errorf("ckpt: delta link %d: %w", len(deltas)+1, err)
		}
		if d.ParentHash != tip {
			return nil, nil, fmt.Errorf("ckpt: delta link %d (round %d) chains from %#x, tip is %#x: chain broken",
				len(deltas)+1, d.Round, d.ParentHash, tip)
		}
		if d.Round < round {
			return nil, nil, fmt.Errorf("ckpt: delta link %d rewinds round %d below %d", len(deltas)+1, d.Round, round)
		}
		tip = d.Hash
		round = d.Round
		deltas = append(deltas, d)
		rest = next
	}
	for i, d := range deltas {
		if err := beep.ApplyDelta(base, d); err != nil {
			return nil, nil, fmt.Errorf("ckpt: delta link %d: %w", i+1, err)
		}
	}
	base.Seal()
	info.Deltas = len(deltas)
	info.Round, info.Hash = base.Round, base.Hash
	return base, info, nil
}
