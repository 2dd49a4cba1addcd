package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/beep"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/graph"
)

// Typed failure modes, distinguishable with errors.Is/As. The
// coordinator never hangs: every wait is bounded by a timeout, and
// every unbounded condition (a worker that cannot be revived, a budget
// that runs out) surfaces as one of these.
var (
	// ErrWorkerLost reports a partition that could not be revived:
	// respawn budget exhausted, the spawner failed, or a respawned
	// worker never joined.
	ErrWorkerLost = errors.New("dist: worker lost permanently")
	// ErrBudget reports a stabilization run that exhausted its round
	// budget.
	ErrBudget = errors.New("dist: round budget exhausted without stabilization")
	// ErrCanceled reports a run stopped by its context.
	ErrCanceled = errors.New("dist: run canceled")
)

// WorkerError is a worker-reported protocol or execution fault (a
// contained kernel panic, a desynchronized request, a malformed
// payload). It is deterministic — replaying from a checkpoint would
// reproduce it — so the coordinator fails the run instead of respawning
// into the same fault.
type WorkerError struct {
	Part int
	Msg  string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("dist: worker %d fault: %s", e.Part, e.Msg)
}

// Config describes one distributed run.
type Config struct {
	Graph    *graph.Graph
	Protocol string // core registry name, e.g. "alg1-known-delta"
	Seed     uint64
	Init     core.InitMode // default InitRandom; ignored with Resume
	// Partitions is the worker count (clamped to [1, n]).
	Partitions int
	// FixedRounds > 0 runs to exactly that round instead of to
	// stabilization.
	FixedRounds int
	// MaxRounds bounds a stabilization run (0 = core.DefaultMaxRounds).
	MaxRounds int
	// CheckpointEvery is the synchronized-checkpoint cadence in rounds
	// (0 = every 8: recovery needs a checkpoint to rewind to).
	CheckpointEvery int
	// CheckpointPath, when set, persists the run's state at every
	// cadence tick as a base + delta chain (internal/ckpt).
	CheckpointPath string
	// Resume restores this checkpoint instead of applying Init.
	Resume *beep.Checkpoint
	// Spawner launches partition workers; required.
	Spawner Spawner
	// Listen is the coordinator's listen address (default 127.0.0.1:0).
	Listen string

	// PhaseTimeout is the initial per-RPC reply window (default 2s);
	// each retransmission doubles it up to MaxBackoff (default 8s),
	// bounded by MaxAttempts (default 4) — the capped-exponential-
	// backoff retransmission ladder. JoinTimeout bounds waiting for a
	// (re)spawned worker's join (default 10s). HeartbeatEvery paces
	// idle-connection pings (default 1s; negative disables).
	PhaseTimeout   time.Duration
	MaxBackoff     time.Duration
	MaxAttempts    int
	JoinTimeout    time.Duration
	HeartbeatEvery time.Duration
	// MaxRespawns bounds worker revivals across the run (0 = 3 per
	// partition); exceeding it fails the run with ErrWorkerLost.
	MaxRespawns int
	// RoundDelay paces the round loop (smoke tests and demos widen the
	// kill window with it).
	RoundDelay time.Duration

	// Fault injects the plan on the coordinator's side of every worker
	// connection.
	Fault FaultPlan

	// Observer, when set, receives each completed round's combined
	// trace hash (re-executed rounds fire again with identical hashes).
	Observer func(round int, hash uint64)
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Result reports a distributed run.
type Result struct {
	// Rounds is the number of executed rounds reflected in the final
	// state. A stabilization run detects legality via the quiescent
	// round that follows it, so Rounds == StabilizedRound + 1 there.
	Rounds int
	// StabilizedRound is the first round after which the configuration
	// is a verified MIS (-1 if the run did not stabilize).
	StabilizedRound int
	Stabilized      bool
	MIS             []bool
	MISSize         int
	// Respawns counts worker revivals (0 in a fault-free run).
	Respawns int
	// RoundHashes[i] is the combined per-partition trace digest of
	// round initialRound+1+i (see CombineDigests); recovered rounds
	// overwrite their slot with — by determinism — the same value.
	RoundHashes []uint64
	// LastCheckpoint is the state at round Rounds, sealed: bit-exact the
	// checkpoint a single-process network stepped to that round holds.
	LastCheckpoint *beep.Checkpoint
	// WireBytes totals the logical payload bytes of the per-round signal
	// exchange (emit replies + deliver requests, the two directions that
	// scale with the graph); retransmissions are not counted. The delta
	// exchange keeps this to the changed-word traffic.
	WireBytes int64
}

// client is the coordinator's handle on one worker connection: the RPC
// retransmission ladder, the heartbeat, and the death record.
type client struct {
	part int
	t    transport

	phaseTimeout time.Duration
	maxBackoff   time.Duration
	maxAttempts  int

	mu   sync.Mutex // serializes RPCs (phases vs heartbeat)
	seq  uint32
	dead atomic.Bool

	causeMu sync.Mutex
	cause   error

	stopHB chan struct{}
}

func (c *client) markDead(err error) {
	c.causeMu.Lock()
	if c.cause == nil {
		c.cause = err
	}
	c.causeMu.Unlock()
	if c.dead.CompareAndSwap(false, true) {
		c.t.close() // wake any blocked read
	}
}

func (c *client) deadCause() error {
	c.causeMu.Lock()
	defer c.causeMu.Unlock()
	if c.cause == nil {
		return fmt.Errorf("dist: worker %d dead", c.part)
	}
	return c.cause
}

// rpc sends a request and waits for the matching reply, retransmitting
// under the capped exponential backoff ladder. Replies are matched by
// sequence number against every attempt of this call, so a late reply
// to an earlier retransmission still completes the RPC. A worker fault
// frame surfaces as *WorkerError; anything else that exhausts the
// ladder (or breaks the connection) marks the client dead.
func (c *client) rpc(req, want frameType, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rpcLocked(req, want, payload, c.maxAttempts)
}

func (c *client) rpcLocked(req, want frameType, payload []byte, attempts int) ([]byte, error) {
	if c.dead.Load() {
		return nil, c.deadCause()
	}
	timeout := c.phaseTimeout
	seqs := make(map[uint32]bool, attempts)
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		c.seq++
		seq := c.seq
		seqs[seq] = true
		if err := c.t.send(frame{Type: req, Seq: seq, Payload: payload}); err != nil {
			err = fmt.Errorf("dist: worker %d: send: %w", c.part, err)
			c.markDead(err)
			return nil, err
		}
		deadline := time.Now().Add(timeout)
		for {
			f, err := c.t.recv(deadline)
			if err != nil {
				if isTimeout(err) {
					lastErr = err
					break // retransmit with a wider window
				}
				err = fmt.Errorf("dist: worker %d: recv: %w", c.part, err)
				c.markDead(err)
				return nil, err
			}
			if !seqs[f.Seq] {
				continue // stale reply from an older RPC
			}
			if f.Type == fErr {
				return nil, &WorkerError{Part: c.part, Msg: string(f.Payload)}
			}
			if f.Type != want {
				continue
			}
			return f.Payload, nil
		}
		timeout *= 2
		if timeout > c.maxBackoff {
			timeout = c.maxBackoff
		}
	}
	err := fmt.Errorf("dist: worker %d: no reply after %d attempts (last: %v)", c.part, attempts, lastErr)
	c.markDead(err)
	return nil, err
}

// heartbeat pings the worker whenever the connection is idle, so death
// between rounds (or during round pacing) is detected before the next
// phase blocks on it.
func (c *client) heartbeat(every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopHB:
			return
		case <-ticker.C:
			if c.dead.Load() {
				return
			}
			if !c.mu.TryLock() {
				continue // an RPC is in flight; it is the liveness probe
			}
			_, err := c.rpcLocked(fPing, fPong, nil, 2)
			c.mu.Unlock()
			if err != nil {
				var wf *WorkerError
				if !errors.As(err, &wf) {
					return // markDead already recorded the cause
				}
			}
		}
	}
}

func (c *client) close() {
	if c.stopHB != nil {
		select {
		case <-c.stopHB:
		default:
			close(c.stopHB)
		}
	}
	c.t.close()
}

// joinEvent is one accepted worker handshake.
type joinEvent struct {
	part int
	fc   *frameConn
}

// coordinator is the per-run state of Run.
type coordinator struct {
	cfg      Config
	logf     func(string, ...any)
	g        *graph.Graph
	table    *partTable
	channels int
	token    string
	addr     string

	ln      net.Listener
	joinCh  chan joinEvent
	clients []*client
	// replies holds the current broadcast's per-partition payloads.
	replies [][]byte

	cfgMsgs [][]byte // per-partition fConfig payloads

	// merged per-channel sender word arrays of the current round.
	merged [2][]uint64

	// Delta-exchange state. cur[p][c] is partition p's last-uploaded
	// value of every word; owners[wi] lists the partitions whose range
	// overlaps word wi (2 on unaligned boundaries), so a changed upload
	// re-merges the word by OR over owners; dirty[c] is the bitset of
	// merged words changed since the last deliver, filtered per
	// partition by the table's need sets.
	cur    [][2][]uint64
	owners [][]int32
	dirty  [2][]uint64
	// downWi/downVal are the deliver-payload scratch lists, reused
	// across partitions and rounds.
	downWi  [2][]int32
	downVal [2][]uint64

	// shadow is a network over the run's graph and protocol that never
	// steps: it starts at the initial (or resumed) state and installs
	// the state rows of every complete collection, so it holds the last
	// collected round. It is the recovery anchor (restored workers
	// rewind to it), the legality probe's input, the source of
	// Result.LastCheckpoint, and the network the chain writer
	// checkpoints at each cadence tick (chain is nil without a
	// CheckpointPath).
	shadow *beep.Network
	chain  *ckpt.Writer

	res *Result
}

// Run executes one distributed simulation: spawns the partition
// workers, drives the per-round emit/deliver exchange, detects
// stabilization, and survives worker crashes by respawning and
// restoring everyone from the last synchronized checkpoint (bit-exact
// by determinism). See Config for the failure-handling knobs.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("dist: nil graph")
	}
	if cfg.Spawner == nil {
		return nil, fmt.Errorf("dist: no spawner configured")
	}
	n := cfg.Graph.N()
	if n == 0 {
		return nil, fmt.Errorf("dist: empty graph")
	}
	if cfg.FixedRounds < 0 || cfg.MaxRounds < 0 || cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("dist: negative budget (fixedRounds=%d maxRounds=%d checkpointEvery=%d)",
			cfg.FixedRounds, cfg.MaxRounds, cfg.CheckpointEvery)
	}
	applyDefaults(&cfg)
	co := &coordinator{cfg: cfg, g: cfg.Graph, res: &Result{StabilizedRound: -1}}
	co.logf = cfg.Logf
	if co.logf == nil {
		co.logf = func(string, ...any) {}
	}
	defer co.shutdown()
	if err := co.setup(ctx); err != nil {
		return nil, err
	}
	if err := co.loop(ctx); err != nil {
		return nil, err
	}
	return co.res, nil
}

func applyDefaults(cfg *Config) {
	if cfg.Partitions < 1 {
		cfg.Partitions = 1
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 8
	}
	if cfg.PhaseTimeout <= 0 {
		cfg.PhaseTimeout = 2 * time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 4 * cfg.PhaseTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = 10 * time.Second
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.MaxRespawns == 0 {
		cfg.MaxRespawns = 3 * cfg.Partitions
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Init == 0 {
		cfg.Init = core.InitRandom
	}
}

// setup builds the shadow network at the start state, the partition
// table and the listener, and brings every worker to the start state.
func (co *coordinator) setup(ctx context.Context) error {
	cfg := &co.cfg
	proto, err := core.ProtocolByName(cfg.Protocol)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	co.channels = proto.Channels()
	if co.shadow, err = beep.NewNetwork(cfg.Graph, proto, cfg.Seed); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	if _, ok := co.shadow.BulkState().(core.LevelExporter); !ok {
		return fmt.Errorf("dist: protocol %s does not export levels", cfg.Protocol)
	}
	if cfg.Resume != nil {
		if len(cfg.Resume.Adversaries) > 0 || cfg.Resume.NoiseLoss != 0 || cfg.Resume.NoiseFalse != 0 || cfg.Resume.SleepP != 0 {
			return fmt.Errorf("dist: checkpoint carries fault models (noise/sleep/adversaries), which the distributed engine does not run")
		}
		if err := co.shadow.Restore(cfg.Resume); err != nil {
			return fmt.Errorf("dist: resume: %w", err)
		}
	} else if err := core.ApplyInit(co.shadow, cfg.Init); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	if cfg.CheckpointPath != "" {
		co.chain = ckpt.NewWriter(cfg.CheckpointPath)
	}

	parts := cfg.Partitions
	if parts > co.g.N() {
		parts = co.g.N()
	}
	co.table = buildPartTable(co.g, computeRanges(co.g.N(), parts))
	cfg.Partitions = len(co.table.ranges)
	for c := 0; c < co.channels; c++ {
		co.merged[c] = make([]uint64, co.table.words)
	}
	words := co.table.words
	co.cur = make([][2][]uint64, len(co.table.ranges))
	for p := range co.cur {
		for c := 0; c < co.channels; c++ {
			co.cur[p][c] = make([]uint64, words)
		}
	}
	co.owners = make([][]int32, words)
	for p, r := range co.table.ranges {
		if r[0] >= r[1] {
			continue
		}
		for wi := r[0] >> 6; wi <= (r[1]-1)>>6; wi++ {
			co.owners[wi] = append(co.owners[wi], int32(p))
		}
	}
	for c := 0; c < co.channels; c++ {
		co.dirty[c] = make([]uint64, (words+63)/64)
	}

	var gbuf bytes.Buffer
	if err := graph.WriteEdgeList(&gbuf, co.g); err != nil {
		return fmt.Errorf("dist: serialize graph: %w", err)
	}
	co.token = fmt.Sprintf("run-%x", cfg.Seed*0x9e3779b97f4a7c15+uint64(co.g.N()))
	co.cfgMsgs = make([][]byte, len(co.table.ranges))
	for p, r := range co.table.ranges {
		msg, err := json.Marshal(configMsg{
			Protocol: cfg.Protocol, Seed: cfg.Seed, Channels: co.channels,
			Graph: gbuf.Bytes(), Lo: r[0], Hi: r[1],
		})
		if err != nil {
			return fmt.Errorf("dist: %w", err)
		}
		co.cfgMsgs[p] = msg
	}

	co.ln, err = net.Listen("tcp", cfg.Listen)
	if err != nil {
		return fmt.Errorf("dist: listen: %w", err)
	}
	co.addr = co.ln.Addr().String()
	co.joinCh = make(chan joinEvent, 4*len(co.table.ranges))
	go co.acceptLoop()

	co.clients = make([]*client, len(co.table.ranges))
	want := make(map[int]bool, len(co.clients))
	for p := range co.clients {
		want[p] = true
		if err := cfg.Spawner.Spawn(ctx, p, co.addr, co.token); err != nil {
			return fmt.Errorf("%w: partition %d: spawn: %v", ErrWorkerLost, p, err)
		}
	}
	err = co.connectParts(want)
	if err == nil {
		err = co.restoreAll()
	}
	if err == nil {
		return nil
	}
	if !errors.Is(err, errNeedRecovery) {
		return err
	}
	// A worker died during initial config/restore: the recovery path
	// handles it like any later death (it re-runs both steps).
	return co.recoverWorkers(ctx)
}

// acceptLoop admits worker connections: each must lead with a valid
// join within the handshake window or is dropped.
func (co *coordinator) acceptLoop() {
	for {
		conn, err := co.ln.Accept()
		if err != nil {
			return
		}
		go func() {
			fc := newFrameConn(conn)
			f, err := fc.recv(time.Now().Add(co.cfg.JoinTimeout))
			if err != nil || f.Type != fJoin {
				conn.Close()
				return
			}
			var jm joinMsg
			if json.Unmarshal(f.Payload, &jm) != nil || jm.Token != co.token ||
				jm.Part < 0 || jm.Part >= len(co.table.ranges) {
				conn.Close()
				return
			}
			co.joinCh <- joinEvent{part: jm.Part, fc: fc}
		}()
	}
}

// connectParts waits for the wanted partitions to join, builds their
// clients, and configures them. Joins for unwanted partitions (stale
// duplicates) are dropped.
func (co *coordinator) connectParts(want map[int]bool) error {
	deadline := time.After(co.cfg.JoinTimeout)
	pending := make(map[int]bool, len(want))
	for p := range want {
		pending[p] = true
	}
	for len(pending) > 0 {
		select {
		case ev := <-co.joinCh:
			if !pending[ev.part] {
				ev.fc.close()
				continue
			}
			delete(pending, ev.part)
			c := &client{
				part:         ev.part,
				t:            wrapFaults(ev.fc, co.cfg.Fault, uint64(ev.part)+1),
				phaseTimeout: co.cfg.PhaseTimeout,
				maxBackoff:   co.cfg.MaxBackoff,
				maxAttempts:  co.cfg.MaxAttempts,
				stopHB:       make(chan struct{}),
			}
			co.clients[ev.part] = c
			if co.cfg.HeartbeatEvery > 0 {
				go c.heartbeat(co.cfg.HeartbeatEvery)
			}
		case <-deadline:
			for p := range pending {
				return fmt.Errorf("%w: partition %d never joined within %v", ErrWorkerLost, p, co.cfg.JoinTimeout)
			}
		}
	}
	// Configure the fresh joins.
	errs := co.broadcast(want, fConfig, fConfigOK, func(p int) []byte { return co.cfgMsgs[p] })
	return co.classify(errs)
}

// broadcast runs one RPC against the selected partitions concurrently
// and returns the per-partition errors (nil entries for the rest).
// Replies land in the out slice when non-nil.
func (co *coordinator) broadcast(sel map[int]bool, req, want frameType, payload func(p int) []byte) []error {
	errs := make([]error, len(co.clients))
	co.replies = make([][]byte, len(co.clients))
	var wg sync.WaitGroup
	for p, c := range co.clients {
		if sel != nil && !sel[p] {
			continue
		}
		wg.Add(1)
		go func(p int, c *client) {
			defer wg.Done()
			if c == nil {
				errs[p] = fmt.Errorf("dist: worker %d has no connection", p)
				return
			}
			out, err := c.rpc(req, want, payload(p))
			if err != nil {
				errs[p] = err
				return
			}
			co.replies[p] = out
		}(p, c)
	}
	wg.Wait()
	return errs
}

// classify folds per-partition RPC errors: a worker fault aborts the
// run (deterministic — a respawn would replay into it); dead workers
// surface as errNeedRecovery for the caller's recovery path.
func (co *coordinator) classify(errs []error) error {
	var deadParts []int
	for p, err := range errs {
		if err == nil {
			continue
		}
		var wf *WorkerError
		if errors.As(err, &wf) {
			return wf
		}
		deadParts = append(deadParts, p)
	}
	if deadParts != nil {
		return errNeedRecovery
	}
	return nil
}

// errNeedRecovery is the internal signal that ≥1 worker died and the
// round loop must run the recovery path. Never returned from Run.
var errNeedRecovery = errors.New("dist: worker death, recovery required")

// restoreAll rewinds every worker to the shadow: the last complete
// collection, in practice the last cadence tick. The coordinator's
// exchange baselines are zeroed in the same breath: every worker's
// fRestore handler runs ResetSparse, so both sides of the delta
// protocol restart from the all-zero word state. Capturing the payload
// rebaselines the shadow's dirty words; that is safe only because every
// restored worker re-exports its full range at the next collection, so
// the next persisted tick is a base.
func (co *coordinator) restoreAll() error {
	co.resetExchange()
	cp, err := co.shadow.Checkpoint()
	if err != nil {
		return fmt.Errorf("dist: restore payload: %w", err)
	}
	payload, err := beep.EncodeSnapshot(cp)
	if err != nil {
		return fmt.Errorf("dist: restore payload: %w", err)
	}
	errs := co.broadcast(nil, fRestore, fRestoreOK, func(int) []byte { return payload })
	return co.classify(errs)
}

// resetExchange zeroes the merged words, every per-partition upload
// baseline and the dirty set.
func (co *coordinator) resetExchange() {
	for c := 0; c < co.channels; c++ {
		for i := range co.merged[c] {
			co.merged[c][i] = 0
		}
		for i := range co.dirty[c] {
			co.dirty[c][i] = 0
		}
		for p := range co.cur {
			cw := co.cur[p][c]
			for i := range cw {
				cw[i] = 0
			}
		}
	}
}

// recoverWorkers revives every dead partition and rewinds the run to
// the shadow's round. Bounded: each revival consumes the
// respawn budget, and a partition that cannot come back (spawn failure,
// join timeout, budget exhausted) fails the run with ErrWorkerLost.
func (co *coordinator) recoverWorkers(ctx context.Context) error {
	for {
		want := make(map[int]bool)
		for p, c := range co.clients {
			if c == nil || c.dead.Load() {
				want[p] = true
			}
		}
		if len(want) == 0 {
			return nil
		}
		for p := range want {
			co.res.Respawns++
			cause := error(nil)
			if c := co.clients[p]; c != nil {
				cause = c.deadCause()
				c.close()
				co.clients[p] = nil
			}
			if co.res.Respawns > co.cfg.MaxRespawns {
				return fmt.Errorf("%w: partition %d: respawn budget (%d) exhausted; last cause: %v",
					ErrWorkerLost, p, co.cfg.MaxRespawns, cause)
			}
			co.logf("recovering partition %d (respawn %d, cause: %v)", p, co.res.Respawns, cause)
			if err := co.cfg.Spawner.Spawn(ctx, p, co.addr, co.token); err != nil {
				return fmt.Errorf("%w: partition %d: respawn: %v", ErrWorkerLost, p, err)
			}
		}
		if err := co.connectParts(want); err != nil {
			if errors.Is(err, errNeedRecovery) {
				continue // a fresh join died during config: go again
			}
			return err
		}
		if err := co.restoreAll(); err != nil {
			if errors.Is(err, errNeedRecovery) {
				continue // a survivor died during restore: go again
			}
			return err
		}
		co.logf("recovered: all %d workers restored at round %d", len(co.clients), co.shadow.Round())
		return nil
	}
}

// shutdown tears the run down: best-effort byes, then close everything.
func (co *coordinator) shutdown() {
	for _, c := range co.clients {
		if c == nil || c.dead.Load() {
			continue
		}
		c.mu.Lock()
		c.seq++
		c.t.send(frame{Type: fShutdown, Seq: c.seq})
		c.mu.Unlock()
	}
	for _, c := range co.clients {
		if c != nil {
			c.close()
		}
	}
	if co.ln != nil {
		co.ln.Close()
	}
	if co.chain != nil {
		co.chain.Close()
	}
	if co.shadow != nil {
		co.shadow.Close()
	}
}
