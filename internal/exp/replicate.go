package exp

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// ReplicatedConfig describes a pool of independent runs of one instance
// (same graph, same protocol, per-trial seeds) executed to
// stabilization. It is the high-replication counterpart of core.Run:
// instead of rebuilding the network for every trial — re-validating the
// CSR, reallocating the machine slab and the per-vertex random streams —
// each worker builds ONE network and re-seeds it in place between
// trials (beep.Network.Reseed), so per-trial cost is dominated by the
// rounds themselves. At n=4096 this cuts per-trial overhead by roughly
// the full construction cost, which is what makes ≥1000 replications
// per cell affordable (experiment E18).
type ReplicatedConfig struct {
	Graph *graph.Graph
	// Protocol must support in-place re-initialization (its bulk state
	// implements beep.FlatReiniter), which all core protocols do.
	Protocol beep.Protocol
	// Seed is the root seed. Trial t executes with SeedFn(t) when SeedFn
	// is non-nil, otherwise with a cellSeed derivation of (Seed, t) —
	// either way trials are deterministic and independent of scheduling.
	Seed   uint64
	SeedFn func(trial int) uint64
	Trials int
	// Init is applied after every reseed (default InitFresh).
	Init core.InitMode
	// MaxRounds bounds each trial; 0 selects core.DefaultMaxRounds.
	// Every trial runs through core.Stabilize, so its round count is
	// exactly the one core.Run reports for the same seed.
	MaxRounds int
	// Options configure every worker's network (stripe count, noise,
	// sleep, …). The default single stripe is the right one here:
	// parallelism across the replication pool beats parallelism inside
	// one round.
	Options []beep.Option
	// Workers sizes the replication pool, the number of networks that
	// run trials concurrently (0 = GOMAXPROCS); it does not set a
	// network's stripe count (beep.WithWorkers in Options does).
	Workers int
	// Relabel, when not OrderNone, runs every trial on a cache-aware
	// relabeling of Graph (graph.Relabel) and maps the MIS back to the
	// original identifiers before verification. Relabeling changes
	// which private stream an original vertex draws from, so for a
	// fixed seed the trial outcomes differ from the unrelabeled pool in
	// the per-trial draws (not in distribution) — which is exactly why
	// it is an opt-in, separately measured transform.
	Relabel graph.Ordering
}

// ReplicatedResult holds the per-trial outcomes, trial-indexed.
type ReplicatedResult struct {
	// Rounds[t] is the stabilization time of trial t.
	Rounds []int
	// MISSize[t] is the size of the verified MIS of trial t.
	MISSize []int
}

// seedFor derives the seed of one trial.
func (cfg *ReplicatedConfig) seedFor(trial int) uint64 {
	if cfg.SeedFn != nil {
		return cfg.SeedFn(trial)
	}
	return cellSeed(cfg.Seed, 0x7265706c, uint64(trial)) // "repl"
}

// RunReplicated executes cfg.Trials independent stabilization runs and
// returns their trial-indexed outcomes. Results are deterministic in
// (Graph, Protocol, seeds) and independent of the worker count, because
// every trial derives all of its randomness from its own seed.
//
// On the first trial error the dispatcher stops handing out new trials
// (mirroring runTrials): in-flight trials finish, the first error is
// returned.
func RunReplicated(cfg ReplicatedConfig) (*ReplicatedResult, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("exp: RunReplicated: nil graph")
	}
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("exp: RunReplicated: nil protocol")
	}
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("exp: RunReplicated: trials must be positive, got %d", cfg.Trials)
	}
	res := &ReplicatedResult{
		Rounds:  make([]int, cfg.Trials),
		MISSize: make([]int, cfg.Trials),
	}
	// Optional cache-aware relabeling: computed once, shared read-only
	// by every worker. Trials then execute on rl.Graph and pull the MIS
	// back through the inverse permutation for verification against the
	// ORIGINAL topology (the stronger check: a bug in the permutation
	// or the pullback fails verification even if the relabeled-space
	// MIS is legal).
	var rl *graph.Relabeling
	if cfg.Relabel != graph.OrderNone {
		rl = graph.Relabel(cfg.Graph, cfg.Relabel)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Trials {
		workers = cfg.Trials
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		failed   atomic.Bool
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		failed.Store(true)
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net, err := newReplicaNetwork(&cfg, rl)
			if err != nil {
				report(err)
				for range next { // keep the dispatcher unblocked
				}
				return
			}
			defer net.Close()
			var probe core.State
			var scratch misScratch
			for trial := range next {
				if err := runReplica(&cfg, net, rl, &probe, &scratch, trial, res); err != nil {
					report(fmt.Errorf("exp: RunReplicated trial %d: %w", trial, err))
				}
			}
		}()
	}
	for t := 0; t < cfg.Trials && !failed.Load(); t++ {
		next <- t
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// newReplicaNetwork builds one worker's reusable network (on the
// relabeled topology when rl is set). The construction seed is
// irrelevant: every trial reseeds before running.
func newReplicaNetwork(cfg *ReplicatedConfig, rl *graph.Relabeling) (*beep.Network, error) {
	g := cfg.Graph
	if rl != nil {
		g = rl.Graph
	}
	return beep.NewNetwork(g, cfg.Protocol, cfg.seedFor(0), cfg.Options...)
}

// misScratch holds one worker's reusable pullback buffers, so the
// relabeled verification path stays allocation-free across trials.
type misScratch struct {
	mask, back []bool
}

// runReplica executes one trial on a reused network: reseed, re-init,
// run to stabilization, verify, record. probe is reused across trials so
// the per-round stabilization check stays allocation-free.
func runReplica(cfg *ReplicatedConfig, net *beep.Network, rl *graph.Relabeling, probe *core.State, scratch *misScratch, trial int, res *ReplicatedResult) error {
	if err := net.Reseed(cfg.seedFor(trial)); err != nil {
		return err
	}
	if err := core.ApplyInit(net, cfg.Init); err != nil {
		return err
	}
	rounds, err := core.Stabilize(net, probe, cfg.MaxRounds)
	if err != nil {
		return err
	}
	if rl != nil {
		// Pull the MIS back through the inverse permutation and verify
		// it against the ORIGINAL topology, not just the relabeled one.
		n := net.N()
		if cap(scratch.mask) < n {
			scratch.mask = make([]bool, n)
			scratch.back = make([]bool, n)
		}
		mask, back := scratch.mask[:n], scratch.back[:n]
		for v := 0; v < n; v++ {
			mask[v] = probe.InMIS(v)
		}
		for old, nw := range rl.NewID {
			back[old] = mask[nw]
		}
		if err := cfg.Graph.VerifyMIS(back); err != nil {
			return fmt.Errorf("relabeled MIS does not pull back to a legal MIS on the original graph: %w", err)
		}
	}
	mis := 0
	for v := 0; v < net.N(); v++ {
		if probe.InMIS(v) {
			mis++
		}
	}
	res.Rounds[trial] = rounds
	res.MISSize[trial] = mis
	return nil
}

// RunE18 measures the stabilization-time TAIL at high replication: with
// ≥1000 independent runs per cell (made affordable by RunReplicated's
// reseed-in-place amortization and the flat round kernels), the p99 and
// max become meaningful, not just the mean — exactly the regime where
// the w.h.p. statements of Theorems 2.1 and the Section 3 lemmas live.
// The table reports, per (family, init) cell, the bootstrap 95% CI of
// the mean and the tail quantiles normalized by log2 n.
func RunE18(cfg Config) error {
	trials := cfg.trials(1000, 5000)
	sizes := cfg.sizes()
	n := sizes[len(sizes)/2]

	tab := &Table{
		Title:   fmt.Sprintf("E18: stabilization-time tails at %d replications per cell (n=%d, Alg 1, known Δ)", trials, n),
		Columns: []string{"family", "init", "mean", "ci95", "p50", "p90", "p99", "max", "max/log2n", "mis(mean)"},
		Notes: []string{
			"each cell is an independent replication pool: one reusable network per worker, reseeded per trial (exp.RunReplicated)",
			"tail quantiles need the replication count: at 10 trials p99 is noise, at ≥1000 it is a measurement",
			"max/log2n staying flat across cells is the empirical face of the O(log n) w.h.p. bound",
		},
	}

	fams := standardFamilies()
	for fi, fam := range []familyGen{fams[0], fams[3], fams[5]} { // cycle, gnp-avg8, ba-m2
		g := fam.build(n, rng.New(cellSeed(cfg.Seed, 18, uint64(fi), 1)))
		for _, init := range []core.InitMode{core.InitRandom, core.InitAdversarial} {
			root := cellSeed(cfg.Seed, 18, uint64(fi), uint64(init), 2)
			res, err := RunReplicated(ReplicatedConfig{
				Graph:    g,
				Protocol: core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta)),
				Seed:     root,
				Trials:   trials,
				Init:     init,
				Workers:  cfg.Workers,
			})
			if err != nil {
				return fmt.Errorf("E18 %s/%s: %w", fam.name, init, err)
			}
			xs := make([]float64, len(res.Rounds))
			misSum := 0
			for i, r := range res.Rounds {
				xs[i] = float64(r)
				misSum += res.MISSize[i]
			}
			s := Summarize(xs)
			sorted := make([]float64, len(xs))
			copy(sorted, xs)
			sort.Float64s(sorted)
			p99 := quantile(sorted, 0.99)
			ci := BootstrapMeanCI(xs, 0.95, 300, rng.New(cellSeed(root, 3)))
			tab.AddRow(fam.name, init.String(),
				F(s.Mean), ci.String(), F(s.Median), F(s.P90), F(p99), F(s.Max),
				F(s.Max/Log2(float64(n))), F(float64(misSum)/float64(len(res.MISSize))))
		}
	}
	return cfg.Render(tab)
}
