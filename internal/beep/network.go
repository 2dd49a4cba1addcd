package beep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Network is one executable instance of a protocol on a graph: the
// machines, their private random streams, and double-buffered signal
// arrays. A Network is not safe for concurrent use by multiple callers;
// the FlatParallel engine synchronizes internally.
type Network struct {
	g graph.Topology
	// csr is the materialized fast path: non-nil iff g is a
	// *graph.Graph, in which case neighbor rows are aliased CSR slices.
	// Synthesizing backends (implicit, compact) leave it nil and the
	// delivery paths decode rows into scratch buffers instead.
	csr *graph.Graph
	// rowBuf is the sequential-path neighbor scratch for synthesizing
	// backends (len = g.MaxDegree()); nil when csr is set. The
	// pipeline stripes carry their own scratch (stripe.rowBuf).
	rowBuf   []int32
	proto    Protocol
	machines []Machine
	srcs     []*rng.Source
	engine   Engine

	// root is the stream the per-vertex streams were split from;
	// nextStream is the next unused child index. Vertices that join
	// through Rewire draw fresh child streams from here, so joiner
	// streams never collide with any stream handed out before.
	root       *rng.Source
	nextStream uint64

	sent  []Signal
	heard []Signal
	round int

	channels int
	fullMask Signal
	noise    Noise
	noiseSrc *rng.Source
	sleep    Sleep
	sleepSrc *rng.Source
	asleep   []bool

	// Adversary state (see adversary.go): per-vertex policy byte
	// (advNone = cooperating), the pre-drawn signals of the coming
	// round, the babbler indices, the dedicated stream, and a counter
	// bumped whenever the adversary set or the topology changes so
	// observers (core.State) know to re-capture the mask.
	adv         []uint8
	advSent     []Signal
	advBabblers []int32
	advSrc      *rng.Source
	advCount    int
	advEpoch    uint64
	advPending  []advSpec

	observer func(round int, sent, heard []Signal)

	// bulk is the opaque bulk-state handle returned by a BatchProtocol,
	// nil otherwise. See BulkState.
	bulk any

	// Flat-kernel state (see flat.go and pipeline.go): flatOps is the
	// bound kernel handle (nil when the protocol has none or
	// WithFlatKernels(false) was given, in which case the reference loop
	// runs), stripes the pipeline's vertex stripes (one per pool worker,
	// a single one on the Sequential engine), flatSkip the per-round
	// skip mask of fault rounds, sendBits the per-channel sender bitsets
	// and sparse the word-activity state.
	flatOps    FlatProtocol
	noFlat     bool
	forceDelta bool
	stripes    []stripe
	flatSkip   bitset.Set
	sendBits   [2][]uint64
	sparse     sparseState
	// statsObs receives the per-round activity statistics.
	statsObs      func(round, active, frontierWords int)
	roundActive   int
	roundFrontier int

	// Dirty-word tracking (see delta.go): dirty accumulates the slab
	// words dirtied since each reader's baseline — the checkpoint's and
	// the legality probe's; roundSparse is set by the pipeline rounds
	// whose end-of-round masks describe the round exactly — any round
	// that ends without setting it is conservatively marked all-dirty.
	dirty       dirtyState
	roundSparse bool

	// gfp caches graph.FingerprintOf(n.g), the topology identity
	// stamped into every checkpoint and delta. The generic Topology
	// path costs O(n·deg) to hash — paid per capture it would dwarf a
	// dirty-word delta — so it is computed once on first use and
	// invalidated only by Rewire, the sole operation that replaces the
	// graph.
	gfp   uint64
	gfpOK bool

	// seed is the root seed the network was constructed with, recorded
	// in checkpoints for provenance.
	seed uint64
	// failed poisons the network after a contained machine panic: the
	// step that produced it stopped mid-phase, so the state is not a
	// valid round boundary and every later TryStep returns this error.
	failed *RunError

	// workers runs the stripes of a multi-stripe pipeline (nil for a
	// single stripe and for the reference loop).
	workers *workerPool
	// reqWorkers is the WithWorkers override of the FlatParallel engine
	// (0 = GOMAXPROCS; validated non-negative at construction).
	reqWorkers int
	closed     bool
}

// Option configures a Network.
type Option func(*Network)

// WithEngine selects the execution engine (default Sequential).
func WithEngine(e Engine) Option {
	return func(n *Network) { n.engine = e }
}

// WithObserver installs a callback invoked after every round with the
// signals of that round. The slices are reused across rounds and must not
// be retained.
func WithObserver(fn func(round int, sent, heard []Signal)) Option {
	return func(n *Network) { n.observer = fn }
}

// WithWorkers sets the stripe and worker-goroutine count of the
// FlatParallel engine; 0, the default, means GOMAXPROCS. The count is
// capped at the vertex count, and stripes are 64-vertex-aligned, so a
// small network may get fewer. Negative values are a construction
// error. Sequential runs no pool and ignores the option. Because the
// engines are trace-equivalent by construction, the worker count never
// changes results — only wall-clock time (see BENCH_parflat.json for
// the scaling table).
func WithWorkers(k int) Option {
	return func(n *Network) { n.reqWorkers = k }
}

// NewNetwork instantiates proto on every vertex of g. Each vertex gets
// the child stream Split(v) of the root stream derived from seed, so an
// execution is a pure function of (g, proto, seed, engine) and engines
// are trace-equivalent. g may be any graph.Topology backend —
// materialized CSR, compact varint, or implicit generator — and because
// every backend presents the same canonical neighbor rows, the executed
// trace is independent of the backend choice (pinned by
// TestEngineTraceEquivalenceBackends).
func NewNetwork(g graph.Topology, proto Protocol, seed uint64, opts ...Option) (*Network, error) {
	if g == nil {
		return nil, fmt.Errorf("beep: nil graph")
	}
	csr, isCSR := g.(*graph.Graph)
	if isCSR && csr == nil {
		return nil, fmt.Errorf("beep: nil graph")
	}
	if c := proto.Channels(); c < 1 || c > 2 {
		return nil, fmt.Errorf("beep: protocol uses %d channels, model supports 1 or 2", c)
	}
	n := g.N()
	net := &Network{
		g:          g,
		csr:        csr,
		seed:       seed,
		proto:      proto,
		machines:   make([]Machine, n),
		srcs:       make([]*rng.Source, n),
		engine:     Sequential,
		nextStream: uint64(n),
		sent:       make([]Signal, n),
		heard:      make([]Signal, n),
		channels:   proto.Channels(),
		fullMask:   Signal(1<<uint(proto.Channels())) - 1,
		noiseSrc:   noiseSeed(seed),
		sleepSrc:   rng.New(seed ^ sleepSalt),
		advSrc:     rng.New(seed ^ advSalt),
	}
	root := rng.New(seed)
	net.root = root
	if bp, ok := proto.(BatchProtocol); ok {
		ms, bulk := bp.NewMachines(g)
		if len(ms) != n {
			return nil, fmt.Errorf("beep: BatchProtocol %T built %d machines for %d vertices", proto, len(ms), n)
		}
		net.machines = ms
		net.bulk = bulk
	} else {
		for v := 0; v < n; v++ {
			net.machines[v] = proto.NewMachine(v, g)
		}
	}
	// One contiguous slab for the per-vertex streams: at n = 10⁸ this is
	// a single allocation of 32-byte states instead of 10⁸ separate heap
	// objects (and their pointer-chasing during emit).
	slab := make([]rng.Source, n)
	for v := 0; v < n; v++ {
		root.SplitInto(uint64(v), &slab[v])
		net.srcs[v] = &slab[v]
	}
	if csr == nil {
		net.rowBuf = make([]int32, g.MaxDegree())
	}
	for _, opt := range opts {
		opt(net)
	}
	if net.reqWorkers < 0 {
		return nil, fmt.Errorf("beep: WithWorkers(%d): worker count must be non-negative (0 = GOMAXPROCS)", net.reqWorkers)
	}
	if err := net.noise.validate(); err != nil {
		return nil, err
	}
	if err := net.sleep.validate(); err != nil {
		return nil, err
	}
	if err := net.installAdversaries(); err != nil {
		return nil, err
	}
	if err := net.finishFlatSetup(proto); err != nil {
		return nil, err
	}
	return net, nil
}

// poolSize returns the stripe count of the FlatParallel engine: the
// WithWorkers override when given, one per available CPU otherwise.
func (n *Network) poolSize() int {
	if n.reqWorkers > 0 {
		w := n.reqWorkers
		if w > n.N() {
			w = n.N()
		}
		if w < 1 {
			w = 1
		}
		return w
	}
	return workerCount(n.N())
}

func workerCount(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Graph returns the topology the network runs on.
func (n *Network) Graph() graph.Topology { return n.g }

// Round returns the number of completed rounds.
func (n *Network) Round() int { return n.round }

// Machine returns the state machine of vertex v, for inspection by the
// harness (legality checks) and the fault injector. A retained handle
// can mutate state behind the engine's back, so the vertex is
// conservatively marked active for the pipeline and dirty for both
// readers of the dirty tracker (bulk read paths — core.LevelExporter —
// bypass this accessor and stay mark-free).
func (n *Network) Machine(v int) Machine {
	n.sparse.markVertex(v)
	n.dirty.markVertex(v)
	return n.machines[v]
}

// BulkState returns the opaque bulk-state handle provided by a
// BatchProtocol, or nil. Callers type-assert it to the protocol's bulk
// accessor (for example core.LevelExporter) to read whole-network state
// without n interface dispatches.
func (n *Network) BulkState() any { return n.bulk }

// N returns the number of vertices.
func (n *Network) N() int { return len(n.machines) }

// RandomizeAll sets every machine to a uniformly random state, using the
// vertices' own streams: the "arbitrary initial configuration" of the
// self-stabilization model.
func (n *Network) RandomizeAll() {
	n.sparse.markAll()
	n.dirty.markAll()
	for v, m := range n.machines {
		m.Randomize(n.srcs[v])
	}
}

// Corrupt randomizes the states of the given vertices, modeling a
// transient fault hitting exactly those RAMs. The injection is atomic:
// every index is validated before any machine is touched, so an
// out-of-range entry can never leave a half-injected fault behind.
func (n *Network) Corrupt(vertices []int) error {
	for _, v := range vertices {
		if v < 0 || v >= n.N() {
			return fmt.Errorf("beep: corrupt vertex %d out of range (no state modified)", v)
		}
	}
	for _, v := range vertices {
		n.sparse.markVertex(v)
		n.dirty.markVertex(v)
		n.machines[v].Randomize(n.srcs[v])
	}
	return nil
}

// Step executes one synchronous round on the configured engine. It
// panics if the network has been closed: Close is terminal (it tears
// down the worker goroutines of the FlatParallel engine), and silently
// resurrecting a pool after Close hid lifecycle bugs in callers. If a
// machine panics inside the round, Step re-panics with the typed
// *RunError that TryStep would have returned — the barrier and the
// worker goroutines are already safely parked at that point, so callers
// that recover the panic keep a functioning process.
func (n *Network) Step() {
	if n.closed {
		panic("beep: Step on closed Network (Close is terminal)")
	}
	if err := n.TryStep(); err != nil {
		panic(err)
	}
}

// TryStep executes one synchronous round like Step but converts machine
// panics into a typed *RunError instead of unwinding: the supervised
// execution path of stab.Supervisor. It returns ErrClosed on a closed
// network and the original *RunError on every call after a contained
// panic (the network is poisoned: the failing phase stopped mid-stripe,
// so the state is not a valid round boundary).
func (n *Network) TryStep() error {
	if n.closed {
		return ErrClosed
	}
	if n.failed != nil {
		return n.failed
	}
	// Reference-loop rounds report full activity; the pipeline
	// overwrites these with the round's real frontier.
	n.roundActive, n.roundFrontier = n.N(), (n.N()+63)>>6
	n.roundSparse = false
	var rerr *RunError
	if n.flatOps != nil {
		rerr = n.stepFlat()
	} else {
		// No kernels (the protocol has none, WithFlatKernels(false), or a
		// Rewire dropped the bulk handle): the reference loop.
		rerr = n.stepSequential()
	}
	if rerr != nil || !n.roundSparse {
		// The round ran a path whose effects the activity masks do not
		// describe (the reference loop, a fault round, a phase cut short
		// by a contained panic): conservatively dirty everything for
		// both readers. The pipeline accumulates its exact end-of-round
		// union instead.
		n.dirty.markAll()
	}
	if rerr != nil {
		n.failed = rerr
		return rerr
	}
	n.round++
	if n.statsObs != nil {
		n.statsObs(n.round, n.roundActive, n.roundFrontier)
	}
	if n.observer != nil {
		n.observer(n.round, n.sent, n.heard)
	}
	return nil
}

// Failed returns the contained machine panic that poisoned the network,
// or nil if every round so far completed.
func (n *Network) Failed() *RunError { return n.failed }

// emitRange runs the emit phase for vertices [lo, hi), containing
// machine panics: a panicking Emit is converted into a *RunError naming
// the vertex and the remaining vertices of the range are skipped.
func (n *Network) emitRange(lo, hi int) (rerr *RunError) {
	v := lo
	defer func() {
		if r := recover(); r != nil {
			rerr = &RunError{
				Vertex: v, Round: n.round + 1, Phase: "emit",
				Engine: n.engine, Recovered: r, Stack: debug.Stack(),
			}
		}
	}()
	for ; v < hi; v++ {
		if n.adversarial(v) {
			n.sent[v] = n.advSent[v]
			continue
		}
		if n.sleeping(v) {
			n.sent[v] = Silent
			continue
		}
		n.sent[v] = n.machines[v].Emit(n.srcs[v])
	}
	return nil
}

// updateRange runs the update phase for vertices [lo, hi) with the same
// panic containment as emitRange.
func (n *Network) updateRange(lo, hi int) (rerr *RunError) {
	v := lo
	defer func() {
		if r := recover(); r != nil {
			rerr = &RunError{
				Vertex: v, Round: n.round + 1, Phase: "update",
				Engine: n.engine, Recovered: r, Stack: debug.Stack(),
			}
		}
	}()
	for ; v < hi; v++ {
		if n.adversarial(v) || n.sleeping(v) {
			continue
		}
		n.machines[v].Update(n.sent[v], n.heard[v])
	}
	return nil
}

// Run executes rounds until stop returns true or maxRounds rounds have
// completed, returning the number of rounds executed and whether stop was
// satisfied. stop is evaluated after each round (and once before the
// first, so an already-satisfied condition costs zero rounds).
func (n *Network) Run(maxRounds int, stop func() bool) (rounds int, ok bool) {
	if stop != nil && stop() {
		return 0, true
	}
	for r := 0; r < maxRounds; r++ {
		n.Step()
		if stop != nil && stop() {
			return r + 1, true
		}
	}
	return maxRounds, stop == nil
}

// stepSequential is the reference loop: Machine.Emit on every vertex,
// the early-exit neighbor scan, the noise pass and Machine.Update on
// every vertex, in vertex order.
func (n *Network) stepSequential() *RunError {
	n.drawSleep()
	n.drawAdversaries()
	if err := n.emitRange(0, n.N()); err != nil {
		return err
	}
	n.deliverRange(0, n.N(), n.rowBuf)
	n.applyNoise()
	return n.updateRange(0, n.N())
}

// deliverRange computes heard[v] for v in [lo, hi): the OR of neighbor
// signals. Once every channel the protocol uses has been heard, the
// remaining neighbors cannot change the result, so the scan stops —
// on dense graphs with many beeping vertices this turns the O(deg)
// per-vertex scan into an O(1) expected one.
//
// buf is the neighbor scratch for synthesizing backends (caller-owned,
// len ≥ MaxDegree); it is ignored on the materialized fast path, where
// rows are aliased CSR slices. The early exit makes the synthesizing
// path stop decoding mid-row too: NeighborsInto fills buf eagerly, so
// the exit only skips the OR scan, but that is where the branches are.
func (n *Network) deliverRange(lo, hi int, buf []int32) {
	full := n.fullMask
	sent, heard := n.sent, n.heard
	if g := n.csr; g != nil {
		for v := lo; v < hi; v++ {
			var h Signal
			for _, u := range g.Neighbors(v) {
				h |= sent[u]
				if h == full {
					break
				}
			}
			heard[v] = h
		}
		return
	}
	for v := lo; v < hi; v++ {
		var h Signal
		for _, u := range n.g.NeighborsInto(v, buf) {
			h |= sent[u]
			if h == full {
				break
			}
		}
		heard[v] = h
	}
}

// Close releases the worker goroutines of the FlatParallel engine and
// makes the network terminal: any subsequent Step panics. It is safe to
// call multiple times (later calls are no-ops); without a pool it only
// marks the network closed.
func (n *Network) Close() {
	if n.workers != nil {
		n.workers.close()
		n.workers = nil
	}
	n.closed = true
}

// Closed reports whether Close has been called.
func (n *Network) Closed() bool { return n.closed }

// workerPool runs the pipeline phases (pipeline.go) over the
// network's stripes with one persistent goroutine per stripe and a
// generation-based (sense-reversing) barrier between phases: the
// coordinator publishes each phase by bumping a generation counter and
// broadcasting once, and each worker joins the barrier with a single
// atomic decrement — the last one signals completion. That is one
// wakeup plus one atomic join per worker per phase.
type workerPool struct {
	net *Network

	mu    sync.Mutex
	cond  *sync.Cond
	gen   uint64 // generation: incremented to publish the next phase
	phase int32  // phase command of the current generation

	pending atomic.Int32  // workers that have not yet joined the barrier
	done    chan struct{} // signaled by the last worker to join

	// failed records the first contained kernel panic of the current
	// phase. Kernel calls recover before the worker joins the barrier,
	// so a panicking stripe never orphans it; the coordinator collects
	// the error after the phase completes on every stripe.
	failed atomic.Pointer[RunError]
}

func newWorkerPool(net *Network) *workerPool {
	p := &workerPool{net: net, done: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	for i := range net.stripes {
		go p.worker(&net.stripes[i])
	}
	return p
}

// worker waits (blocking, not spinning) for each new generation,
// executes its stripe's share of the published phase, and joins the
// barrier.
func (p *workerPool) worker(st *stripe) {
	var seen uint64
	for {
		p.mu.Lock()
		for p.gen == seen {
			p.cond.Wait()
		}
		seen = p.gen
		phase := p.phase
		p.mu.Unlock()

		if phase != phaseExit {
			if err := p.net.runStripe(int(phase), st); err != nil {
				p.failed.CompareAndSwap(nil, err)
			}
		}
		if p.pending.Add(-1) == 0 {
			p.done <- struct{}{}
		}
		if phase == phaseExit {
			return
		}
	}
}

// runPhase publishes one phase to all workers (one broadcast) and waits
// for the barrier. The atomic join chain plus the done send establish
// the happens-before edge from every worker's writes back to the
// coordinator, so the next phase observes all stripe results.
func (p *workerPool) runPhase(phase int) {
	p.pending.Store(int32(len(p.net.stripes)))
	p.mu.Lock()
	p.phase = int32(phase)
	p.gen++
	p.mu.Unlock()
	p.cond.Broadcast()
	<-p.done
}

func (p *workerPool) close() {
	p.runPhase(phaseExit)
}

// takeError collects (and clears) the first contained panic of the
// phase that just completed.
func (p *workerPool) takeError() *RunError {
	return p.failed.Swap(nil)
}
