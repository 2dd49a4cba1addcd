package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/famspec"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestRunFamilyAllAlgorithms(t *testing.T) {
	for _, alg := range []string{"alg1-known-delta", "alg1-own-degree", "alg2-two-channel", "alg1-adaptive"} {
		if err := run([]string{"-family", "cycle:24", "-alg", alg, "-seed", "3"}); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

func TestRunBaselines(t *testing.T) {
	for _, alg := range []string{"jeavons", "afek", "luby"} {
		if err := run([]string{"-family", "cycle:16", "-alg", alg, "-init", "fresh", "-seed", "3"}); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

func TestRunInitModes(t *testing.T) {
	for _, init := range []string{"fresh", "random", "adversarial", "zero"} {
		if err := run([]string{"-family", "path:12", "-init", init}); err != nil {
			t.Fatalf("%s: %v", init, err)
		}
	}
}

func TestRunGraphFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.edges")
	if err := os.WriteFile(path, []byte("n 4\n0 1\n1 2\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", path, "-print-mis"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunGraphFileBGR(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bgr")
	if err := graph.WriteBGR(path, graph.Torus(5, 5)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", path, "-print-mis"}); err != nil {
		t.Fatal(err)
	}
	// A tampered image must be rejected before any simulation starts.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", path}); err == nil {
		t.Fatal("tampered .bgr accepted")
	}
}

func TestRunGraphFileGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.edges.gz")
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte("n 4\n0 1\n1 2\n2 3\n")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", path, "-print-mis"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFaultsAndNoise(t *testing.T) {
	if err := run([]string{"-family", "cycle:20", "-faults", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-family", "cycle:20", "-noise", "0.01"}); err != nil {
		t.Fatal(err)
	}
}

// runOutput runs the CLI and returns what it printed to stdout.
func runOutput(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	err = run(args)
	os.Stdout = stdout
	w.Close()
	printed := string(<-out)
	r.Close()
	if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return printed
}

// TestRunFaultsRecoverTheReportedRun pins -faults to one execution: the
// stabilization it prints and the recovery it prints must both be those
// of the run built here through the library — the same graph, protocol,
// seed and -init, stabilized, then the same vertices corrupted.
func TestRunFaultsRecoverTheReportedRun(t *testing.T) {
	const seed, k = 3, 8
	out := runOutput(t, "-family", "gnp:256:0.03", "-seed", "3", "-init", "fresh", "-faults", "8")

	g, err := famspec.Parse("gnp:256:0.03", rng.New(seed^0x9e37))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := core.ProtocolByName("alg1-known-delta")
	if err != nil {
		t.Fatal(err)
	}
	net, err := beep.NewNetwork(g, proto, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if err := core.ApplyInit(net, core.InitFresh); err != nil {
		t.Fatal(err)
	}
	var probe core.State
	rounds, err := core.Stabilize(net, &probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	mis := graph.CountTrue(probe.MISMask())
	if err := net.Corrupt(rng.New(seed ^ 0xfa17).Perm(g.N())[:k]); err != nil {
		t.Fatal(err)
	}
	recovery, err := core.Stabilize(net, &probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("stabilized: rounds=%d |MIS|=%d (verified)\nfault recovery: corrupted=%d recovery-rounds=%d (verified)\n",
		rounds, mis, k, recovery)
	if !strings.HasSuffix(out, want) {
		t.Fatalf("beepmis printed\n%s\nthe library run gives\n%s", out, want)
	}
}

func TestRunCSVTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	if err := run([]string{"-family", "cycle:16", "-csv", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "round,beeping,") {
		t.Fatalf("csv header missing:\n%s", string(data[:60]))
	}
	if strings.Count(string(data), "\n") < 3 {
		t.Fatal("csv too short")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                     // no graph
		{"-family", "cycle:8", "-graph", "x"},  // both sources
		{"-family", "nosuch:8"},                // unknown family
		{"-family", "cycle:8", "-alg", "bad"},  // unknown algorithm
		{"-family", "cycle:8", "-init", "bad"}, // unknown init
		{"-graph", "/nonexistent/file"},        // unreadable file
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestHelpFamilies(t *testing.T) {
	if err := run([]string{"-help-families"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunChurnStorms(t *testing.T) {
	for _, spec := range []string{"flap:2:3", "growth:2:2:2", "crash:2:2", "partition:1"} {
		if err := run([]string{"-family", "gnp:24:0.2", "-churn", spec, "-seed", "5"}); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
}

func TestRunChurnWithMuteAdversaries(t *testing.T) {
	if err := run([]string{"-family", "gnp:30:0.15", "-churn", "flap:2:3",
		"-adversaries", "0,7", "-adversary-policy", "mute", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAdversaries(t *testing.T) {
	// Mute adversaries: the correct subgraph stabilizes and verifies.
	if err := run([]string{"-family", "gnp:30:0.15", "-adversaries", "2,11",
		"-adversary-policy", "mute", "-seed", "4", "-print-mis"}); err != nil {
		t.Fatal(err)
	}
	// A jammer at a star's center denies every leaf its silent rounds, so
	// the correct subgraph can never stabilize; the run must still
	// complete gracefully with a stable-fraction report.
	if err := run([]string{"-family", "star:12", "-adversaries", "0",
		"-adversary-policy", "jammer", "-max-rounds", "300"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunAdversaryDefaultBudget pins the adversarial path to the one
// default round budget: without -max-rounds, the unsupervised jammer
// run gives up after core.DefaultMaxRounds rounds, as the supervised
// path (-deadline) does for the same flags.
func TestRunAdversaryDefaultBudget(t *testing.T) {
	out := runOutput(t, "-family", "star:16", "-adversaries", "0", "-adversary-policy", "jammer")
	want := fmt.Sprintf("no stabilization within %d rounds", core.DefaultMaxRounds(16))
	if !strings.Contains(out, want) {
		t.Fatalf("output %q does not report %q", out, want)
	}
}

func TestRunChurnAndAdversaryErrors(t *testing.T) {
	cases := [][]string{
		{"-family", "cycle:8", "-churn", "bogus:1"},                            // unknown kind
		{"-family", "cycle:8", "-churn", "flap:0:2"},                           // non-positive events
		{"-family", "cycle:8", "-churn", "flap:2"},                             // wrong arity
		{"-family", "cycle:8", "-churn", "flap:x:2"},                           // non-integer
		{"-family", "cycle:8", "-adversaries", "99"},                           // out of range
		{"-family", "cycle:8", "-adversaries", "-1"},                           // negative id
		{"-family", "cycle:8", "-adversaries", "1,x"},                          // not an id
		{"-family", "cycle:8", "-adversaries", ","},                            // empty list
		{"-family", "cycle:8", "-adversary-policy", "mute"},                    // policy without set
		{"-family", "cycle:8", "-adversaries", "1", "-adversary-policy", "ba"}, // unknown policy
		{"-family", "cycle:8", "-churn", "flap:1:2", "-faults", "2"},           // churn + faults
		{"-family", "cycle:8", "-adversaries", "1", "-csv", "x.csv"},           // adversaries + csv
		{"-family", "cycle:8", "-alg", "luby", "-churn", "flap:1:2"},           // baseline + churn
		{"-family", "cycle:8", "-alg", "afek", "-adversaries", "1"},            // baseline + adversaries
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestRunGraph6File(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.g6")
	// "Ch" is P4.
	if err := os.WriteFile(path, []byte("Ch\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", path}); err != nil {
		t.Fatal(err)
	}
}

// TestRunEngines pins the stripe count's invisibility at the CLI: the
// same run on the default single stripe, on -workers 1 and on -workers
// 3 (three 64-aligned stripes at n = 300) prints the identical output.
// error paths for unknown and retired names and baseline combinations.
func TestRunEngines(t *testing.T) {
	args := []string{"-family", "gnp:300:0.02", "-seed", "3"}
	want := runOutput(t, args...)
	for _, w := range []string{"1", "3"} {
		if got := runOutput(t, append(args, "-workers", w)...); got != want {
			t.Fatalf("-workers %s printed %q, the default printed %q", w, got, want)
		}
	}
}

// TestRunWorkersFlag covers -workers: explicit stripe counts
// (including counts above the vertex count, which the network caps),
// acceptance on the churn and adversary paths, rejection of counts
// below 1, and rejection for baseline algorithms and -distributed.
func TestRunWorkersFlag(t *testing.T) {
	for _, w := range []string{"1", "2", "999"} {
		if err := run([]string{"-family", "cycle:24", "-workers", w, "-seed", "3"}); err != nil {
			t.Fatalf("-workers=%s: %v", w, err)
		}
	}
	if err := run([]string{"-family", "cycle:24", "-workers", "2",
		"-churn", "flap:2:2", "-seed", "3"}); err != nil {
		t.Fatalf("churn with -workers: %v", err)
	}
	if err := run([]string{"-family", "cycle:24", "-workers", "2",
		"-adversaries", "0", "-adversary-policy", "mute", "-seed", "3"}); err != nil {
		t.Fatalf("adversaries with -workers: %v", err)
	}
	for _, w := range []string{"0", "-1"} {
		if err := run([]string{"-family", "cycle:24", "-workers", w}); err == nil ||
			!strings.Contains(err.Error(), "at least 1") {
			t.Fatalf("-workers %s: want a validation error, got %v", w, err)
		}
	}
	if err := run([]string{"-family", "cycle:16", "-alg", "luby", "-init", "fresh", "-workers", "2"}); err == nil {
		t.Fatal("want error for -workers with a baseline algorithm")
	}
	if err := run([]string{"-family", "cycle:16", "-distributed", "-workers", "2"}); err == nil {
		t.Fatal("want error for -workers with -distributed")
	}
}

// TestRunProfiles checks -cpuprofile/-memprofile leave non-empty pprof
// files behind after a successful run.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-family", "gnp:128:0.05", "-workers", "2",
		"-cpuprofile", cpu, "-memprofile", mem, "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestRunCheckpointInspectResume drives the checkpoint lifecycle
// through the CLI: a supervised run persists a chain, -inspect-checkpoint
// validates it and names its format, -resume continues from it, and a
// tampered file is rejected with a nonzero-exit error.
func TestRunCheckpointInspectResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := run([]string{"-family", "gnp:96:0.07", "-seed", "4",
		"-checkpoint", path, "-checkpoint-every", "8"}); err != nil {
		t.Fatal(err)
	}
	if out := runOutput(t, "-inspect-checkpoint", path); !strings.Contains(out, "(v4-binary)") {
		t.Fatalf("inspect does not name the v4 base:\n%s", out)
	}
	if err := run([]string{"-family", "gnp:96:0.07", "-seed", "4",
		"-resume", path}); err != nil {
		t.Fatalf("resume from inspected checkpoint failed: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-inspect-checkpoint", bad}); err == nil {
		t.Fatal("inspect accepted a tampered checkpoint")
	}
}
