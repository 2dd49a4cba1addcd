package exp

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Config controls the scale of an experiment run.
type Config struct {
	// Full selects the paper-scale sweeps (larger n, more trials);
	// otherwise quick laptop-scale defaults are used.
	Full bool
	// Seed is the root seed; every (experiment, family, size, trial)
	// cell derives a distinct child seed so cells are independent and
	// the whole suite is reproducible.
	Seed uint64
	// Trials overrides the per-cell trial count when > 0.
	Trials int
	// Out receives the rendered tables and series.
	Out io.Writer
	// JSON switches output from aligned text to one JSON document per
	// table/series.
	JSON bool
	// Manifest, when non-nil, makes the sweeps resumable: finished
	// cells are recorded (and fsynced) as they complete, and cells
	// already on record are reused instead of recomputed. Because cell
	// seeds are derived from (seed, experiment, n, trial), a resumed
	// sweep's numbers are identical to an uninterrupted one's.
	Manifest *Manifest
	// Workers bounds trial-level parallelism for the experiments that
	// fan replications across goroutines (E18's replication pools);
	// 0 means GOMAXPROCS. Results never depend on it — trials derive
	// all randomness from their own seeds.
	Workers int
}

// trials returns the effective trial count.
func (c Config) trials(quick, full int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Full {
		return full
	}
	return quick
}

// sizes returns the sweep sizes.
func (c Config) sizes() []int {
	if c.Full {
		return []int{256, 1024, 4096, 16384, 65536}
	}
	return []int{64, 128, 256, 512, 1024}
}

// cellSeed derives the deterministic seed of one measurement cell.
func cellSeed(root uint64, parts ...uint64) uint64 {
	h := root ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		h ^= p + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xff51afd7ed558ccd
	}
	return h
}

// Experiment is one registered reproduction target.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(cfg Config) error
}

// registry holds the experiment suite in presentation order.
func registry() []Experiment {
	return []Experiment{
		{ID: "F1", Title: "Figure 1: beeping-probability activation function", Description: "p_t(v) as a function of ℓ_t(v)", Run: RunF1},
		{ID: "E1", Title: "Theorem 2.1: known max degree, O(log n)", Description: "stabilization rounds vs n across graph families, arbitrary initial states", Run: RunE1},
		{ID: "E2", Title: "Theorem 2.2: own degree, O(log n · log log n)", Description: "stabilization rounds vs n with per-vertex degree knowledge", Run: RunE2},
		{ID: "E3", Title: "Corollary 2.3: two channels, O(log n)", Description: "Algorithm 2 stabilization rounds vs n", Run: RunE3},
		{ID: "E4", Title: "Versus Jeavons–Scott–Xu (non-self-stabilizing)", Description: "fresh-start parity and corrupted-start failure of the baseline", Run: RunE4},
		{ID: "E5", Title: "Versus Afek-style restart baseline", Description: "self-stabilizing round counts: O(log n) vs polylog-with-restarts", Run: RunE5},
		{ID: "E6", Title: "Transient-fault recovery and closure", Description: "re-stabilization rounds after corrupting k states", Run: RunE6},
		{ID: "E7", Title: "Lemma 3.5/3.6 tails", Description: "platinum-round waiting times and prominence overshoots", Run: RunE7},
		{ID: "E8", Title: "Ablations", Description: "c1 slack, below-threshold caps, channels, init modes, Luby/greedy reference", Run: RunE8},
		{ID: "E9", Title: "Extension: listening noise", Description: "stabilization and persistence under per-round false positives/negatives", Run: RunE9},
		{ID: "E10", Title: "Extension: zero topology knowledge (open problem)", Description: "collision-triggered adaptive caps vs the known-Δ oracle", Run: RunE10},
		{ID: "E11", Title: "Convergence dynamics and topology metadata", Description: "per-round |S_t| curves per init mode; family diameters/degrees", Run: RunE11},
		{ID: "E12", Title: "Extension: duty-cycling (sleeping vertices)", Description: "stabilization and persistence when vertices miss rounds with probability p", Run: RunE12},
		{ID: "E13", Title: "Beep (energy) complexity", Description: "convergence and steady-state transmissions: the energy price of fault detection", Run: RunE13},
		{ID: "E14", Title: "Availability under recurring faults", Description: "fraction of legal rounds when faults arrive on a fixed period", Run: RunE14},
		{ID: "E15", Title: "Topology churn storms", Description: "re-stabilization, availability and repair locality under live rewiring (flap/growth/crash/partition-heal)", Run: RunE15},
		{ID: "E16", Title: "Adversarial beepers", Description: "correct-subgraph MIS quality vs adversary count, placement and policy (jammer/mute)", Run: RunE16},
		{ID: "E17", Title: "Chaos kill–resume certification", Description: "randomized kills resumed from integrity-checked checkpoints must replay bit-exact across stripe counts and fault regimes", Run: RunE17},
		{ID: "E18", Title: "Stabilization-time tails at high replication", Description: "p99/max stabilization rounds from ≥1000 reseed-in-place replications per cell", Run: RunE18},
		{ID: "E19", Title: "Backend scaling to n=10⁸", Description: "ns/vertex/round and bytes/vertex for the csr/compact/implicit graph backends (implicit reaches 10⁸ with --full)", Run: RunE19},
		// E20 is reserved for the protocol-portfolio tournament (ROADMAP
		// open item 5).
		{ID: "E21", Title: "Activity decay and the sparse-round payoff", Description: "per-round frontier decay under WithStatsObserver and whole-run dense vs sparse wall-clock (bit-identical traces)", Run: RunE21},
		{ID: "E22", Title: "Checkpoint cost vs cadence vs corruption", Description: "per-tick capture+encode cost of v3 binary full vs v3 delta checkpoints across checkpoint cadences and transient-fault rates", Run: RunE22},
	}
}

// IDs returns the registered experiment identifiers in order.
func IDs() []string {
	var ids []string
	for _, e := range registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// Lookup finds an experiment by (case-sensitive) id.
func Lookup(id string) (Experiment, error) {
	for _, e := range registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, IDs())
}

// RunAll executes every experiment in order.
func RunAll(cfg Config) error {
	for _, e := range registry() {
		if !cfg.JSON {
			fmt.Fprintf(cfg.Out, "=== %s — %s ===\n%s\n\n", e.ID, e.Title, e.Description)
		}
		if err := e.Run(cfg); err != nil {
			return fmt.Errorf("exp %s: %w", e.ID, err)
		}
	}
	return nil
}

// familyGen names a graph family and builds instances of a given size.
type familyGen struct {
	name  string
	build func(n int, src *rng.Source) *graph.Graph
}

// standardFamilies is the cross-family sweep used by E1/E2/E3: it mixes
// bounded-degree, dense, heterogeneous and random topologies.
func standardFamilies() []familyGen {
	return []familyGen{
		{name: "cycle", build: func(n int, _ *rng.Source) *graph.Graph { return graph.Cycle(n) }},
		{name: "torus", build: func(n int, _ *rng.Source) *graph.Graph { return torusOf(n) }},
		{name: "bintree", build: func(n int, _ *rng.Source) *graph.Graph { return graph.BinaryTree(n) }},
		{name: "gnp-avg8", build: func(n int, src *rng.Source) *graph.Graph { return graph.GNPAvgDegree(n, 8, src) }},
		{name: "star", build: func(n int, _ *rng.Source) *graph.Graph { return graph.Star(n) }},
		{name: "ba-m2", build: func(n int, src *rng.Source) *graph.Graph { return graph.PreferentialAttachment(n, 2, src) }},
	}
}

// torusOf returns a near-square torus with about n vertices.
func torusOf(n int) *graph.Graph {
	r := 2
	for r*r < n {
		r++
	}
	c := (n + r - 1) / r
	if r < 3 {
		r = 3
	}
	if c < 3 {
		c = 3
	}
	return graph.Torus(r, c)
}

// denseFamilies adds the contention-heavy topologies used by the
// comparison experiments at smaller sizes.
func denseFamilies() []familyGen {
	return []familyGen{
		{name: "complete", build: func(n int, _ *rng.Source) *graph.Graph { return graph.Complete(n) }},
		{name: "gnp-avg8", build: func(n int, src *rng.Source) *graph.Graph { return graph.GNPAvgDegree(n, 8, src) }},
		{name: "cycle", build: func(n int, _ *rng.Source) *graph.Graph { return graph.Cycle(n) }},
	}
}

// sortedKeys returns map keys in sorted order for deterministic tables.
func sortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
