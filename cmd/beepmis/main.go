// Command beepmis runs one of the paper's self-stabilizing MIS
// algorithms on a graph and reports the stabilization round count and
// the computed set.
//
// Usage:
//
//	beepmis -family cycle:64 -alg alg1-known-delta -init random
//	beepmis -graph topology.edges -alg alg2-two-channel -seed 7
//	beepmis -family gnp:256:0.05 -faults 20        # inject and recover
//	beepmis -family gnp:128:0.1 -churn flap:3:8    # live-rewiring storm
//	beepmis -family star:16 -adversaries 0 -adversary-policy jammer
//	beepmis -family gnp:4096:0.002 -workers 4 -cpuprofile cpu.pprof
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/atomicio"
	"repro/internal/baseline"
	"repro/internal/beep"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/famspec"
	"repro/internal/graph"
	"repro/internal/prof"
	"repro/internal/rng"
	"repro/internal/stab"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "beepmis:", err)
		os.Exit(1)
	}
}

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("beepmis", flag.ContinueOnError)
	family := fs.String("family", "", "graph family spec (see -help-families)")
	graphFile := fs.String("graph", "", "graph file: .edges, .edges.gz, .g6 or .bgr (alternative to -family)")
	alg := fs.String("alg", "alg1-known-delta", "algorithm: alg1-known-delta | alg1-own-degree | alg2-two-channel | alg1-adaptive | jeavons | afek | luby")
	init := fs.String("init", "random", "initial configuration: fresh | random | adversarial | zero")
	seed := fs.Uint64("seed", 1, "random seed")
	maxRounds := fs.Int("max-rounds", 0, "round budget (0 = generous default)")
	faults := fs.Int("faults", 0, "after stabilizing, corrupt this many vertex states and re-stabilize")
	noise := fs.Float64("noise", 0, "listening-noise probability ε (applied as both loss and false-positive rate)")
	csvPath := fs.String("csv", "", "write per-round aggregate statistics (CSV) to this file")
	printMIS := fs.Bool("print-mis", false, "print the MIS vertex list")
	churnSpec := fs.String("churn", "", "run a topology-churn storm: flap:EVENTS:TOGGLES | growth:EVENTS:JOINS:ATTACH | crash:EVENTS:CRASHES | partition:CYCLES")
	advList := fs.String("adversaries", "", "comma-separated non-cooperating vertex ids (e.g. \"0,5,9\")")
	advPolicy := fs.String("adversary-policy", "jammer", "adversary behavior: jammer | babbler | mute (requires -adversaries)")
	ckPath := fs.String("checkpoint", "", "auto-checkpoint the run to this file (written atomically, integrity-hashed)")
	ckEvery := fs.Int("checkpoint-every", 0, "auto-checkpoint every K rounds (default 100 when -checkpoint is set)")
	resumePath := fs.String("resume", "", "resume from a checkpoint file instead of starting fresh (same -family/-seed/-alg)")
	inspectCkpt := fs.String("inspect-checkpoint", "", "validate a checkpoint file (base snapshot plus any delta chain) and print its summary, then exit; a broken chain exits nonzero")
	deadline := fs.Duration("deadline", 0, "wall-clock deadline per attempt, e.g. 30s (0 = none)")
	maxRetries := fs.Int("max-retries", 0, "budget escalations after the first attempt (the run is extended, not restarted)")
	workers := fs.Int("workers", 1, "stripe count of the round pipeline; k > 1 runs k stripes on a worker pool (same trace at every k)")
	distributed := fs.Bool("distributed", false, "run over partitioned workers (coordinator + N beepworkers)")
	partitions := fs.Int("partitions", 2, "worker partition count for -distributed")
	workerBin := fs.String("worker-bin", "", "beepworker binary for -distributed (empty = in-process workers)")
	distRoundDelay := fs.Duration("dist-round-delay", 0, "pace between distributed rounds (widens the crash window for drills)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (written atomically)")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file (written atomically)")
	helpFams := fs.Bool("help-families", false, "list graph family specs and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *helpFams {
		fmt.Println(famspec.Help)
		return nil
	}
	if *inspectCkpt != "" {
		return inspectCheckpoint(*inspectCkpt)
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if !*distributed && (explicit["partitions"] || explicit["worker-bin"] || explicit["dist-round-delay"]) {
		return fmt.Errorf("-partitions, -worker-bin and -dist-round-delay require -distributed")
	}
	if *workers < 1 {
		return fmt.Errorf("-workers %d: stripe count must be at least 1", *workers)
	}
	// netOpts prefixes the stripe count shared by every network this
	// invocation constructs; each call returns a fresh slice, so the
	// per-path appends never alias.
	netOpts := func(extra ...beep.Option) []beep.Option {
		return append([]beep.Option{beep.WithWorkers(*workers)}, extra...)
	}
	finishProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finishProf(); ferr != nil && retErr == nil {
			retErr = ferr
		}
	}()

	if *ckEvery > 0 && *ckPath == "" {
		return fmt.Errorf("-checkpoint-every requires -checkpoint")
	}
	if *ckPath != "" && *ckEvery == 0 {
		*ckEvery = 100
	}
	sup := supervision{
		ckPath: *ckPath, ckEvery: *ckEvery, resumePath: *resumePath,
		deadline: *deadline, maxRetries: *maxRetries,
	}
	supervised := sup.ckPath != "" || sup.resumePath != "" || sup.deadline != 0 || sup.maxRetries > 0

	g, err := loadGraph(*family, *graphFile, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s  n=%d m=%d Δ=%d\n", g.Name(), g.N(), g.M(), g.MaxDegree())

	switch *alg {
	case "jeavons", "afek", "luby":
		if *churnSpec != "" || *advList != "" {
			return fmt.Errorf("-churn and -adversaries apply to the self-stabilizing algorithms only, not %q", *alg)
		}
		if *distributed {
			return fmt.Errorf("-distributed applies to the self-stabilizing algorithms only, not %q", *alg)
		}
		if explicit["workers"] {
			return fmt.Errorf("-workers applies to the self-stabilizing algorithms only, not %q", *alg)
		}
		if supervised {
			return fmt.Errorf("-checkpoint/-resume/-deadline/-max-retries apply to the self-stabilizing algorithms only, not %q", *alg)
		}
		return runBaseline(g, *alg, *seed, *maxRounds, *init, *printMIS)
	}

	proto, err := protocolFor(*alg)
	if err != nil {
		return err
	}
	initMode, err := initFor(*init)
	if err != nil {
		return err
	}
	if *distributed {
		// The distributed engine proves bit-exactness against the
		// single-process pipeline under deterministic per-vertex
		// streams; the features below either perturb determinism
		// (noise, adversaries, churn) or are single-process drivers
		// (-csv recorder, fault drill, supervisor retries) and stay
		// with the single-process paths.
		switch {
		case *churnSpec != "" || *advList != "":
			return fmt.Errorf("-distributed cannot be combined with -churn or -adversaries")
		case *noise > 0:
			return fmt.Errorf("-distributed cannot be combined with -noise")
		case *csvPath != "" || *faults > 0:
			return fmt.Errorf("-distributed cannot be combined with -csv or -faults")
		case *deadline != 0 || *maxRetries > 0:
			return fmt.Errorf("-distributed cannot be combined with -deadline or -max-retries")
		case explicit["workers"]:
			return fmt.Errorf("-workers sets a local network's stripe count; -distributed always runs flat kernels over -partitions workers")
		}
		return runDistributed(g, *alg, *seed, initMode, *maxRounds, *partitions,
			*workerBin, *distRoundDelay, sup, *printMIS)
	}
	if *advList == "" && *advPolicy != "jammer" {
		return fmt.Errorf("-adversary-policy %q requires -adversaries", *advPolicy)
	}
	advVerts, advPol, err := parseAdversarySpec(*advList, *advPolicy, g.N())
	if err != nil {
		return err
	}
	if *churnSpec != "" {
		if *csvPath != "" || *faults > 0 {
			return fmt.Errorf("-churn cannot be combined with -csv or -faults")
		}
		if supervised {
			return fmt.Errorf("-churn cannot be combined with -checkpoint/-resume/-deadline/-max-retries")
		}
		opts := netOpts()
		if len(advVerts) > 0 {
			opts = append(opts, beep.WithAdversaries(advPol, advVerts))
		}
		return runChurn(g, proto, *seed, *churnSpec, *maxRounds, opts)
	}
	if supervised && (*csvPath != "" || *faults > 0) {
		return fmt.Errorf("-checkpoint/-resume/-deadline/-max-retries cannot be combined with -csv or -faults")
	}
	if len(advVerts) > 0 {
		if *csvPath != "" || *faults > 0 {
			return fmt.Errorf("-adversaries cannot be combined with -csv or -faults")
		}
		if supervised {
			// The supervisor masks adversaries out of the legality probe
			// itself, so the supervised path covers adversarial runs too.
			return runSupervised(g, proto, *seed, initMode, *maxRounds, sup,
				netOpts(beep.WithAdversaries(advPol, advVerts)), *printMIS)
		}
		return runAdversarial(g, proto, *seed, netOpts(), advPol, advVerts, *maxRounds, initMode, *printMIS)
	}
	opts := netOpts(beep.WithNoise(beep.Noise{PLoss: *noise, PFalse: *noise}))
	if *csvPath != "" || *faults > 0 {
		return runDirect(g, proto, *seed, initMode, *maxRounds, opts, *csvPath, *faults, *printMIS)
	}
	return runSupervised(g, proto, *seed, initMode, *maxRounds, sup, opts, *printMIS)
}

// runDirect drives the -csv and -faults paths on one network: it
// stabilizes the network with core.Stabilize, then — when faults > 0 —
// corrupts that same network and re-stabilizes it, and reports both.
// With csvPath set, the recorder reads the run's own probe and the CSV
// covers every round of the run.
func runDirect(g *graph.Graph, proto beep.Protocol, seed uint64, initMode core.InitMode,
	maxRounds int, opts []beep.Option, csvPath string, faults int, printMIS bool) error {
	var probe core.State
	var rec *trace.Recorder
	if csvPath != "" {
		opts = append(opts, beep.WithObserver(func(round int, sent, heard []beep.Signal) {
			rec.Observer()(round, sent, heard)
		}))
	}
	net, err := beep.NewNetwork(g, proto, seed, opts...)
	if err != nil {
		return err
	}
	defer net.Close()
	if csvPath != "" {
		rec = trace.NewRecorder(net, &probe)
	}
	if err := core.ApplyInit(net, initMode); err != nil {
		return err
	}
	rounds, err := core.Stabilize(net, &probe, maxRounds)
	if err != nil {
		return err
	}
	mis := probe.MISMask()
	recovery := ""
	if faults > 0 {
		k := min(faults, g.N())
		if err := net.Corrupt(rng.New(seed ^ 0xfa17).Perm(g.N())[:k]); err != nil {
			return err
		}
		r, err := core.Stabilize(net, &probe, maxRounds)
		if err != nil {
			return fmt.Errorf("after corrupting %d states: %w", k, err)
		}
		recovery = fmt.Sprintf("fault recovery: corrupted=%d recovery-rounds=%d (verified)\n", k, r)
	}
	written := ""
	if csvPath != "" {
		if err := atomicio.WriteFile(csvPath, rec.WriteCSV); err != nil {
			return err
		}
		written = "; trace written to " + csvPath
	}
	fmt.Printf("stabilized: rounds=%d |MIS|=%d (verified)%s\n", rounds, graph.CountTrue(mis), written)
	if printMIS {
		printMask(mis)
	}
	fmt.Print(recovery)
	return nil
}

// runDistributed drives a coordinator + N partition workers run. The
// result line keeps the same parseable "stabilized:" prefix as the
// single-process paths — by design the distributed execution is
// bit-identical to them, so the rounds/|MIS| fields must match too.
func runDistributed(g *graph.Graph, alg string, seed uint64, initMode core.InitMode,
	maxRounds, partitions int, workerBin string, roundDelay time.Duration,
	sup supervision, printMIS bool) error {
	cfg := dist.Config{
		Graph:           g,
		Protocol:        alg,
		Seed:            seed,
		Init:            initMode,
		Partitions:      partitions,
		MaxRounds:       maxRounds,
		CheckpointEvery: sup.ckEvery,
		CheckpointPath:  sup.ckPath,
		RoundDelay:      roundDelay,
	}
	if workerBin != "" {
		cfg.Spawner = &dist.ProcSpawner{Binary: workerBin, Stderr: os.Stderr}
	} else {
		cfg.Spawner = dist.InProcessSpawner(nil)
	}
	if sup.resumePath != "" {
		cp, _, err := ckpt.Load(sup.resumePath)
		if err != nil {
			return err
		}
		cfg.Resume = cp
		fmt.Printf("resuming from %s (round %d)\n", sup.resumePath, cp.Round)
	}
	res, err := dist.Run(context.Background(), cfg)
	if err != nil {
		if sup.ckPath != "" {
			return fmt.Errorf("%w (the last synchronized checkpoint, if any, is at %s; re-run with -resume %s)",
				err, sup.ckPath, sup.ckPath)
		}
		return err
	}
	fmt.Printf("stabilized: rounds=%d |MIS|=%d (verified) distributed partitions=%d respawns=%d wire-bytes=%d\n",
		res.StabilizedRound, res.MISSize, partitions, res.Respawns, res.WireBytes)
	if printMIS {
		printMask(res.MIS)
	}
	return nil
}

// inspectCheckpoint round-trip-validates a checkpoint file through the
// chain reader — base integrity hash, every delta link's hash and
// parentage — and prints the assembled summary. Smoke scripts call it
// before trusting a file for kill–resume drills.
func inspectCheckpoint(path string) error {
	cp, info, err := ckpt.Load(path)
	if err != nil {
		return fmt.Errorf("inspect %s: %w", path, err)
	}
	torn := ""
	if info.TornTail {
		torn = " (torn tail discarded)"
	}
	fmt.Printf("checkpoint %s: valid\n", path)
	fmt.Printf("  base:   %d bytes (%s)\n", info.BaseBytes, info.BaseFormat)
	fmt.Printf("  deltas: %d links, %d bytes%s\n", info.Deltas, info.DeltaBytes, torn)
	fmt.Printf("  state:  round=%d n=%d protocol=%s hash=%#016x\n",
		cp.Round, cp.GraphN, cp.Protocol, cp.Hash)
	return nil
}

// supervision carries the crash-safety CLI flags.
type supervision struct {
	ckPath     string
	ckEvery    int
	resumePath string
	deadline   time.Duration
	maxRetries int
}

// runSupervised is the supervised driver shared by the plain and
// adversarial paths: one stab.Supervisor run with optional deadline,
// budget escalation, auto-checkpointing and resume.
func runSupervised(g *graph.Graph, proto beep.Protocol, seed uint64, initMode core.InitMode,
	maxRounds int, sup supervision, opts []beep.Option, printMIS bool) error {
	cfg := stab.SupervisorConfig{
		Graph: g, Protocol: proto, Seed: seed, Init: initMode,
		MaxRounds: maxRounds, MaxRetries: sup.maxRetries, Deadline: sup.deadline,
		CheckpointEvery: sup.ckEvery, CheckpointPath: sup.ckPath,
		Options: opts,
	}
	if sup.resumePath != "" {
		cp, _, err := ckpt.Load(sup.resumePath)
		if err != nil {
			return err
		}
		cfg.Resume = cp
		fmt.Printf("resuming from %s (round %d)\n", sup.resumePath, cp.Round)
	}
	s, err := stab.NewSupervisor(cfg)
	if err != nil {
		return err
	}
	res, err := s.Run()
	if err != nil {
		if sup.ckPath != "" {
			return fmt.Errorf("%w (the last auto-checkpoint, if any, is at %s; re-run with -resume %s)",
				err, sup.ckPath, sup.ckPath)
		}
		return err
	}
	extra := ""
	if res.Resumed {
		extra += " resumed"
	}
	if res.Attempts > 1 {
		extra += fmt.Sprintf(" attempts=%d", res.Attempts)
	}
	if res.Checkpoints > 0 {
		extra += fmt.Sprintf(" checkpoints=%d", res.Checkpoints)
	}
	fmt.Printf("stabilized: rounds=%d |MIS|=%d (verified)%s\n", res.Rounds, res.MISSize, extra)
	if printMIS {
		printMask(res.MIS)
	}
	return nil
}

func loadGraph(family, file string, seed uint64) (*graph.Graph, error) {
	switch {
	case family != "" && file != "":
		return nil, fmt.Errorf("use either -family or -graph, not both")
	case family != "":
		return famspec.Parse(family, rng.New(seed^0x9e37))
	case file != "":
		if strings.HasSuffix(file, ".bgr") {
			// Binary graphs decode to the compact backend; beepmis's
			// churn/baseline paths want the materialized CSR, and the
			// fingerprint (hence every trace) is backend-invariant.
			c, err := graph.ReadBGR(file)
			if err != nil {
				return nil, err
			}
			g := graph.Materialize(c)
			// The compact image is a scratch source here; release its
			// mapping instead of keeping it for the process lifetime.
			if err := c.Close(); err != nil {
				return nil, err
			}
			return g, nil
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(file, ".gz") {
			zr, err := gzip.NewReader(bytes.NewReader(data))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", file, err)
			}
			if data, err = io.ReadAll(zr); err != nil {
				return nil, fmt.Errorf("%s: %w", file, err)
			}
			if err := zr.Close(); err != nil {
				return nil, fmt.Errorf("%s: %w", file, err)
			}
			file = strings.TrimSuffix(file, ".gz")
		}
		if strings.HasSuffix(file, ".g6") {
			return graph.DecodeGraph6(strings.TrimSpace(string(data)))
		}
		return graph.ReadEdgeList(bytes.NewReader(data))
	default:
		return nil, fmt.Errorf("need -family or -graph (try -help-families)")
	}
}

// protocolFor and initFor resolve through the shared core registry, so
// the CLI and the beepd job API accept exactly the same names.
func protocolFor(alg string) (beep.Protocol, error) {
	return core.ProtocolByName(alg)
}

func initFor(s string) (core.InitMode, error) {
	if s == "" {
		return 0, fmt.Errorf("unknown init mode %q", s)
	}
	return core.InitByName(s)
}

func runBaseline(g *graph.Graph, alg string, seed uint64, maxRounds int, init string, printMIS bool) error {
	if maxRounds <= 0 {
		maxRounds = 2000000
	}
	randomize := init == "random" || init == "adversarial" || init == "zero"
	var res *baseline.Result
	var err error
	switch alg {
	case "jeavons":
		res, err = baseline.RunBeeping(g, baseline.Jeavons{}, seed, maxRounds, randomize, false)
	case "afek":
		res, err = baseline.RunBeeping(g, baseline.NewAfekStyle(g.N()+1), seed, maxRounds, randomize, true)
	case "luby":
		res, err = baseline.RunLuby(g, seed, maxRounds)
	}
	if err != nil {
		return err
	}
	fmt.Printf("completed: rounds=%d |MIS|=%d valid=%v\n", res.Rounds, graph.CountTrue(res.MIS), res.Valid)
	if printMIS {
		printMask(res.MIS)
	}
	return nil
}

// parseAdversarySpec validates the -adversaries / -adversary-policy
// pair against the loaded graph. An empty list means no adversaries.
func parseAdversarySpec(list, policy string, n int) ([]int, beep.AdversaryPolicy, error) {
	if list == "" {
		return nil, 0, nil
	}
	pol, err := beep.ParseAdversaryPolicy(policy)
	if err != nil {
		return nil, 0, err
	}
	verts, err := parseVertexList(list, n)
	if err != nil {
		return nil, 0, err
	}
	return verts, pol, nil
}

// parseVertexList parses a comma-separated list of vertex ids and
// range-checks each against [0, n).
func parseVertexList(s string, n int) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("adversary list: %q is not a vertex id", tok)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("adversary vertex %d out of range [0,%d)", v, n)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("adversary list %q names no vertices", s)
	}
	return out, nil
}

// parseChurnSpec builds the churn schedule named by a
// "kind:arg:arg" spec against the loaded graph.
func parseChurnSpec(spec string, g *graph.Graph, src *rng.Source) ([]graph.ChurnEvent, error) {
	parts := strings.Split(spec, ":")
	ints := func(want int) ([]int, error) {
		if len(parts)-1 != want {
			return nil, fmt.Errorf("churn spec %q: %s takes %d integer argument(s), got %d", spec, parts[0], want, len(parts)-1)
		}
		out := make([]int, want)
		for i, p := range parts[1:] {
			v, err := strconv.Atoi(p)
			if err != nil {
				return nil, fmt.Errorf("churn spec %q: %q is not an integer", spec, p)
			}
			out[i] = v
		}
		return out, nil
	}
	switch parts[0] {
	case "flap":
		a, err := ints(2)
		if err != nil {
			return nil, err
		}
		return graph.FlapSchedule(g, a[0], a[1], src)
	case "growth":
		a, err := ints(3)
		if err != nil {
			return nil, err
		}
		return graph.GrowthSchedule(g, a[0], a[1], a[2], src)
	case "crash":
		a, err := ints(2)
		if err != nil {
			return nil, err
		}
		return graph.CrashSchedule(g, a[0], a[1], src)
	case "partition":
		a, err := ints(1)
		if err != nil {
			return nil, err
		}
		return graph.PartitionHealSchedule(g, a[0], src)
	default:
		return nil, fmt.Errorf("churn spec %q: unknown kind %q (want flap | growth | crash | partition)", spec, parts[0])
	}
}

// runChurn stabilizes the network, replays the scheduled storm through
// live rewiring, and reports per-event recovery, the superstabilization
// adjustment measure, and overall availability.
func runChurn(g *graph.Graph, proto beep.Protocol, seed uint64, spec string, maxRounds int, opts []beep.Option) error {
	sched, err := parseChurnSpec(spec, g, rng.New(seed^0xc4a91))
	if err != nil {
		return err
	}
	res, err := stab.MeasureChurn(stab.ChurnConfig{
		Graph:          g,
		Protocol:       proto,
		Seed:           seed,
		Schedule:       sched,
		RecoveryBudget: maxRounds,
		Dwell:          20,
		Options:        opts,
	})
	if err != nil {
		return err
	}
	fmt.Printf("churn storm %q: warmup=%d rounds, %d events\n", spec, res.InitialRounds, len(res.Events))
	for _, ev := range res.Events {
		status := fmt.Sprintf("recovered in %d rounds", ev.RecoveryRounds)
		if !ev.Recovered {
			status = fmt.Sprintf("NOT recovered within %d rounds", ev.RecoveryRounds)
		}
		fmt.Printf("  %-14s survivors=%-4d joiners=%-3d %-26s adjust=%d\n",
			ev.Label, ev.Survivors, ev.Joiners, status, ev.Adjustment)
	}
	fmt.Printf("churn summary: recovered=%d/%d availability=%.3f final-n=%d\n",
		res.Recovered, len(res.Events), res.Availability, res.FinalN)
	return nil
}

// runAdversarial runs the protocol with non-cooperating vertices and
// reports the behavior of the correct induced subgraph: a verified
// masked MIS when it stabilizes, or the stable fraction of correct
// vertices at the horizon when it cannot (the expected outcome around
// jammers, which deny their neighbors every silent round).
func runAdversarial(g *graph.Graph, proto beep.Protocol, seed uint64, opts []beep.Option, policy beep.AdversaryPolicy, verts []int, maxRounds int, init core.InitMode, printMIS bool) error {
	net, err := beep.NewNetwork(g, proto, seed, append(opts, beep.WithAdversaries(policy, verts))...)
	if err != nil {
		return err
	}
	defer net.Close()
	if err := core.ApplyInit(net, init); err != nil {
		return err
	}
	budget := maxRounds
	if budget <= 0 {
		budget = core.DefaultMaxRounds(g.N())
	}
	var probe core.State // Refresh masks the adversaries out of legality
	rounds, err := core.Stabilize(net, &probe, budget)
	if errors.Is(err, core.ErrNotStabilized) {
		correct := net.N() - net.AdversaryCount()
		frac := 0.0
		if correct > 0 {
			frac = float64(probe.StableCount()-net.AdversaryCount()) / float64(correct)
		}
		fmt.Printf("no stabilization within %d rounds (expected around jammers): stable correct fraction=%.3f adversaries=%d policy=%s\n",
			budget, frac, net.AdversaryCount(), policy)
		return nil
	}
	if err != nil {
		return err
	}
	mis := probe.MISMask()
	fmt.Printf("stabilized (correct subgraph): rounds=%d |MIS|=%d adversaries=%d policy=%s (verified)\n",
		rounds, graph.CountTrue(mis), net.AdversaryCount(), policy)
	if printMIS {
		printMask(mis)
	}
	return nil
}

func printMask(mask []bool) {
	fmt.Print("MIS:")
	for v, in := range mask {
		if in {
			fmt.Printf(" %d", v)
		}
	}
	fmt.Println()
}
