package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/atomicio"
)

// Event is one line of a job's trace log and one frame of the live
// stream. Round events carry the round digest (beep.RoundDigest) — the
// fingerprint the chaos harness compares and the distributed engine
// reports in dist.Result.RoundHashes — so a client (or the chaos test)
// can verify bit-exact resume from the stream alone, and compare a job
// with any other run of the same execution round by round. The
// terminal "done" event reports the outcome.
//
// IDs are monotone: a round event's ID is its round number, the done
// event follows at final round + 1. Reconnecting with Last-Event-ID=N
// replays everything after N; because resumed executions are bit-exact,
// IDs never repeat with different payloads.
type Event struct {
	ID   int    `json:"id"`
	Type string `json:"type"` // "round" | "done"

	// Round events. Active and FrontierWords mirror the engine's
	// activity accounting (beep.WithStatsObserver): the number of
	// vertices whose words were processed this round and the frontier
	// mask's word count. Dense rounds report n and ceil(n/64); a fully
	// quiescent elided round reports 0/0.
	Round         int    `json:"round,omitempty"`
	Hash          string `json:"hash,omitempty"` // 16 hex digits, beep.RoundDigest
	Beeps         int    `json:"beeps,omitempty"`
	Active        int    `json:"active,omitempty"`
	FrontierWords int    `json:"frontierWords,omitempty"`

	// Checkpoint durability metadata: the auto-checkpoint taken since
	// the previous round event (checkpoint writes happen between
	// rounds, so the information rides the next round's event). Kind is
	// "base" (full snapshot) or "delta" (incremental dirty-word frame);
	// bytes is the on-disk size of what was written, NS the capture +
	// encode + persist duration. These fields are NOT part of the
	// bit-exact trace contract (only Hash is): a resumed run may
	// legitimately re-checkpoint on a different cadence or kind.
	CkptKind  string `json:"ckptKind,omitempty"`
	CkptBytes int    `json:"ckptBytes,omitempty"`
	CkptNS    int64  `json:"ckptNS,omitempty"`

	// Done events.
	State      JobState `json:"state,omitempty"`
	Rounds     int      `json:"rounds,omitempty"`
	MISSize    int      `json:"misSize,omitempty"`
	Stabilized bool     `json:"stabilized,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// encode renders the event as one NDJSON line (with trailing newline).
func (e *Event) encode() []byte {
	data, err := json.Marshal(e)
	if err != nil {
		// Event has no unmarshalable fields; this cannot happen.
		panic(fmt.Sprintf("service: encode event: %v", err))
	}
	return append(data, '\n')
}

// readTraceEvents reads the job's trace log, skipping events with
// ID ≤ after. A torn final line (the file is append-mode; a SIGKILL can
// land mid-write) terminates the scan silently: everything before it is
// intact, and the torn tail is rewritten by the resumed run. A missing
// file is an empty trace.
func readTraceEvents(path string, after int) ([]Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []Event
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn tail: unterminated final line
		}
		line := data[:nl]
		data = data[nl+1:]
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			break // torn or corrupt tail; keep the intact prefix
		}
		if e.ID > after {
			out = append(out, e)
		}
	}
	return out, nil
}

// truncateTrace rewrites the trace log keeping only events with
// ID ≤ keep, atomically. A resumed run calls this with the checkpoint
// round before re-appending: the trace is fsynced before every
// checkpoint write, so the kept prefix always covers the checkpoint,
// and the re-executed rounds replace any unsynced or torn tail.
func truncateTrace(path string, keep int) error {
	events, err := readTraceEvents(path, 0)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, e := range events {
		if e.ID <= keep {
			buf.Write(e.encode())
		}
	}
	if buf.Len() == 0 {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return nil
		}
	}
	// Rewrite even when nothing was dropped: the scan may have stopped
	// at a torn or corrupt tail that the byte-level rewrite clears.
	return atomicio.WriteFileBytes(path, buf.Bytes())
}

// traceWriter appends events to the job's trace log through a buffer.
// Sync flushes AND fsyncs — the runner calls it immediately before
// every checkpoint write, which yields the recovery invariant: if a
// checkpoint for round R exists on disk, the trace holds every round
// ≤ R intact (rounds past R may be present from the torn tail, or
// absent; both are reconciled by truncateTrace on resume).
//
// All methods are safe for concurrent use: the runner appends from the
// observer while the hub flushes from subscriber goroutines.
type traceWriter struct {
	mu sync.Mutex
	f  *os.File
	bw *bufio.Writer
}

func openTraceWriter(path string) (*traceWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &traceWriter{f: f, bw: bufio.NewWriterSize(f, 1<<15)}, nil
}

func (w *traceWriter) Append(line []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err := w.bw.Write(line)
	return err
}

// Flush drains the buffer to the OS (no fsync): enough for a replay
// read of the file to observe every appended event.
func (w *traceWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bw.Flush()
}

func (w *traceWriter) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *traceWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	ferr := w.bw.Flush()
	serr := w.f.Sync()
	cerr := w.f.Close()
	if ferr != nil {
		return ferr
	}
	if serr != nil {
		return serr
	}
	return cerr
}
