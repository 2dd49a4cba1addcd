package ckpt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// chainNet builds a stabilized flat-kernel network on the real MIS
// protocol, so the deltas under test come from genuine activity-gated
// rounds (the dirty masks the engine accumulates), not hand-marked
// vertices.
func chainNet(t *testing.T) *beep.Network {
	t.Helper()
	return stableNet(t, graph.GNPAvgDegree(600, 6, rng.New(4)))
}

func stableNet(t *testing.T, g *graph.Graph) *beep.Network {
	t.Helper()
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	net, err := beep.NewNetwork(g, proto, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	net.RandomizeAll()
	var probe core.State
	if _, ok := net.Run(100_000, func() bool {
		return probe.Refresh(net) == nil && probe.Stabilized()
	}); !ok {
		t.Fatal("no stabilization")
	}
	return net
}

// perturbAndSettle injects a small fault and runs a few sparse rounds,
// so the network accumulates genuine dirty words since the last
// checkpoint.
func perturbAndSettle(t *testing.T, net *beep.Network, src *rng.Source, rounds int) {
	t.Helper()
	verts := []int{src.Intn(net.N()), src.Intn(net.N()), src.Intn(net.N())}
	if err := net.Corrupt(verts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		net.Step()
	}
}

// buildChain writes a base plus count deltas driven by real sparse
// rounds, returning the writer, the per-link frame sizes, and the
// network (whose live state equals the chain tip).
func buildChain(t *testing.T, path string, net *beep.Network, count int) (*Writer, []int) {
	t.Helper()
	w := NewWriter(path)
	t.Cleanup(func() { w.Close() })
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteBase(cp); err != nil {
		t.Fatal(err)
	}
	src := rng.New(31)
	var sizes []int
	for i := 0; i < count; i++ {
		perturbAndSettle(t, net, src, 3)
		if net.DirtyAll() {
			t.Fatal("small perturbation saturated the dirty mask")
		}
		d, err := net.CheckpointDelta(w.ParentHash())
		if err != nil {
			t.Fatal(err)
		}
		nbytes, err := w.AppendDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, nbytes)
	}
	return w, sizes
}

// mustEqualLive asserts the loaded chain reproduces the live network's
// full checkpoint bit-exactly.
func mustEqualLive(t *testing.T, path string, net *beep.Network) *ChainInfo {
	t.Helper()
	got, info, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash != want.Hash {
		t.Fatalf("assembled hash %#x, live hash %#x", got.Hash, want.Hash)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("assembled checkpoint not bit-identical to live state")
	}
	return info
}

func TestChainBaseOnlyRestore(t *testing.T) {
	net := chainNet(t)
	path := filepath.Join(t.TempDir(), "ck")
	_, _ = buildChain(t, path, net, 0)
	info := mustEqualLive(t, path, net)
	if info.Deltas != 0 || info.TornTail {
		t.Fatalf("base-only chain reports %d deltas, torn=%v", info.Deltas, info.TornTail)
	}
	if info.BaseFormat != "v4-binary" || info.DeltaFormat != "" {
		t.Fatalf("base format %q, delta format %q; want v4-binary and none", info.BaseFormat, info.DeltaFormat)
	}
}

func TestChainSparseRoundsBitExact(t *testing.T) {
	net := chainNet(t)
	path := filepath.Join(t.TempDir(), "ck")
	_, _ = buildChain(t, path, net, 5)
	info := mustEqualLive(t, path, net)
	if info.Deltas != 5 {
		t.Fatalf("chain reports %d deltas, want 5", info.Deltas)
	}
}

func TestChainTornTailDiscarded(t *testing.T) {
	net := chainNet(t)
	path := filepath.Join(t.TempDir(), "ck")
	_, sizes := buildChain(t, path, net, 3)
	// Snapshot the expected state at the last complete link.
	want, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: cut the final frame short.
	chain, err := os.ReadFile(path + DeltaSuffix)
	if err != nil {
		t.Fatal(err)
	}
	torn := chain[:len(chain)-sizes[2]/2]
	if err := os.WriteFile(path+DeltaSuffix, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	got, info, err := Load(path)
	if err != nil {
		t.Fatalf("torn tail not recovered: %v", err)
	}
	if !info.TornTail || info.Deltas != 2 {
		t.Fatalf("torn chain reports deltas=%d torn=%v, want 2/true", info.Deltas, info.TornTail)
	}
	// The recovered state is the chain up to link 2 — NOT the live
	// state (link 3 was lost), but a valid earlier round.
	if got.Round >= want.Round && len(chain) != len(torn) {
		t.Fatalf("torn recovery round %d not behind tip %d", got.Round, want.Round)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChainTamperedLinkNamed(t *testing.T) {
	net := chainNet(t)
	path := filepath.Join(t.TempDir(), "ck")
	_, sizes := buildChain(t, path, net, 3)
	chain, err := os.ReadFile(path + DeltaSuffix)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside link 2.
	tam := append([]byte(nil), chain...)
	tam[sizes[0]+sizes[1]-10] ^= 0x20
	if err := os.WriteFile(path+DeltaSuffix, tam, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Load(path)
	if err == nil {
		t.Fatal("tampered middle link accepted")
	}
	if !strings.Contains(err.Error(), "link 2") {
		t.Fatalf("diagnostic does not name link 2: %v", err)
	}
}

func TestChainMissingMiddleLink(t *testing.T) {
	net := chainNet(t)
	path := filepath.Join(t.TempDir(), "ck")
	_, sizes := buildChain(t, path, net, 3)
	chain, err := os.ReadFile(path + DeltaSuffix)
	if err != nil {
		t.Fatal(err)
	}
	// Splice link 2 out entirely: link 3 then chains from a tip that
	// was never assembled.
	cut := append([]byte(nil), chain[:sizes[0]]...)
	cut = append(cut, chain[sizes[0]+sizes[1]:]...)
	if err := os.WriteFile(path+DeltaSuffix, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Load(path)
	if err == nil {
		t.Fatal("chain with missing middle link accepted")
	}
	if !strings.Contains(err.Error(), "link 2") || !strings.Contains(err.Error(), "chain broken") {
		t.Fatalf("diagnostic does not name the broken link: %v", err)
	}
}

func TestChainCompaction(t *testing.T) {
	net := chainNet(t)
	path := filepath.Join(t.TempDir(), "ck")
	w, _ := buildChain(t, path, net, 2)
	if w.Deltas() != 2 {
		t.Fatalf("writer reports %d deltas", w.Deltas())
	}
	// Policy checks.
	total := (net.N() + 63) / 64
	if w.NeedsBase(false, 1, total) {
		t.Fatal("tiny delta forced a base")
	}
	if !w.NeedsBase(true, 0, total) {
		t.Fatal("dirty-all did not force a base")
	}
	if !w.NeedsBase(false, total/2+1, total) {
		t.Fatal("half-dirty did not force a base")
	}
	// Compact: a new base must truncate the sidecar and still restore
	// bit-exactly.
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteBase(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + DeltaSuffix); !os.IsNotExist(err) {
		t.Fatal("compaction left the delta sidecar behind")
	}
	info := mustEqualLive(t, path, net)
	if info.Deltas != 0 {
		t.Fatalf("compacted chain reports %d deltas", info.Deltas)
	}
	// And the chain keeps growing cleanly on the new base.
	src := rng.New(77)
	perturbAndSettle(t, net, src, 3)
	d, err := net.CheckpointDelta(w.ParentHash())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendDelta(d); err != nil {
		t.Fatal(err)
	}
	mustEqualLive(t, path, net)
}

func TestChainV2JSONBase(t *testing.T) {
	net := chainNet(t)
	path := filepath.Join(t.TempDir(), "ck")
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// A v2 JSON base as builds before v3 wrote it (JSON plus newline),
	// sealed with their FNV-1a digest.
	cp.FormatVersion = 2
	cp.Seal()
	v2, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(v2, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	got, info, err := Load(path)
	if err != nil {
		t.Fatalf("v2 JSON base rejected: %v", err)
	}
	if info.BaseFormat != "v2-json" {
		t.Fatalf("base format %q, want v2-json", info.BaseFormat)
	}
	if got.Hash != cp.Hash {
		t.Fatalf("v2 base hash %#x, want %#x", got.Hash, cp.Hash)
	}
	// Restore works onto a fresh network.
	g := net.Graph()
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	fresh, err := beep.NewNetwork(g, proto, 123)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Restore(got); err != nil {
		t.Fatal(err)
	}
}

func TestChainAppendGuards(t *testing.T) {
	net := chainNet(t)
	path := filepath.Join(t.TempDir(), "ck")
	w := NewWriter(path)
	defer w.Close()
	src := rng.New(5)
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	perturbAndSettle(t, net, src, 2)
	d, err := net.CheckpointDelta(cp.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendDelta(d); err == nil {
		t.Fatal("append with no base accepted")
	}
	if !w.NeedsBase(false, 0, 1) {
		t.Fatal("fresh writer does not demand a base")
	}
	if _, err := w.WriteBase(cp); err != nil {
		t.Fatal(err)
	}
	wrong := *d
	wrong.ParentHash ^= 1
	wrong.Seal()
	if _, err := w.AppendDelta(&wrong); err == nil {
		t.Fatal("delta not chaining from tip accepted")
	}
	older := *d
	older.FormatVersion = 2
	older.Seal()
	if _, err := w.AppendDelta(&older); err == nil || !strings.Contains(err.Error(), "format version 2") {
		t.Fatalf("version-2 delta on a version-4 base: %v", err)
	}
	if _, err := w.AppendDelta(d); err != nil {
		t.Fatal(err)
	}
}

// TestTickChainsAndTip drives the one cadence tick the supervisor, the
// chaos harness and the distributed coordinator share: the first tick
// is a base, localized activity ticks as deltas, a Restore forces a
// base again, and after every tick both the in-memory tip and the chain
// on disk equal the live network bit-exactly.
func TestTickChainsAndTip(t *testing.T) {
	// A torus keeps a 3-vertex fault local: far fewer than half of its
	// 36 words dirty, so the compaction policy leaves the ticks deltas.
	net := stableNet(t, graph.Torus(48, 48))
	path := filepath.Join(t.TempDir(), "ck")
	w := NewWriter(path)
	defer w.Close()
	if w.Tip() != nil {
		t.Fatal("fresh writer has a tip")
	}
	src := rng.New(12)
	var kinds []string
	tick := func() {
		t.Helper()
		kind, nbytes, err := w.Tick(net)
		if err != nil {
			t.Fatal(err)
		}
		if nbytes <= 0 {
			t.Fatalf("%s tick reported %d bytes", kind, nbytes)
		}
		kinds = append(kinds, kind)
		mustEqualLive(t, path, net)
		live, err := net.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if tip := w.Tip(); tip == nil || !reflect.DeepEqual(tip, live) {
			t.Fatalf("tick %d (%s): in-memory tip differs from the live network", len(kinds), kind)
		}
	}
	tick()
	for i := 0; i < 3; i++ {
		perturbAndSettle(t, net, src, 3)
		tick()
	}
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Restore(cp); err != nil {
		t.Fatal(err)
	}
	tick()
	want := []string{"base", "delta", "delta", "delta", "base"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("tick kinds %v, want %v", kinds, want)
	}
	// A base written around Tick drops the tip it can no longer vouch for.
	if _, err := w.WriteBase(cp); err != nil {
		t.Fatal(err)
	}
	if w.Tip() != nil {
		t.Fatal("tip survived a base written outside Tick")
	}
}

// sealV2 returns a copy of c sealed at format version 2, as builds
// before format v4 sealed it.
func sealV2(c *beep.Checkpoint) *beep.Checkpoint {
	v2 := *c
	v2.FormatVersion = 2
	v2.Seal()
	return &v2
}

// writeV3Chain writes, with the bytes an older build wrote, a format-3
// chain of net: a BCS3 base and one BCD3 frame per perturbation, every
// link sealed at version 2 and chained to the previous link's hash. It
// returns the version-2 seal of the chain tip.
func writeV3Chain(t *testing.T, path string, net *beep.Network, links int) *beep.Checkpoint {
	t.Helper()
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	base := sealV2(cp)
	snap, err := beep.EncodeSnapshot(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	src := rng.New(31)
	var chain []byte
	tip := base.Hash
	for i := 0; i < links; i++ {
		perturbAndSettle(t, net, src, 3)
		d, err := net.CheckpointDelta(tip)
		if err != nil {
			t.Fatal(err)
		}
		d.FormatVersion = 2
		d.Seal()
		frame, err := beep.EncodeDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, frame...)
		tip = d.Hash
	}
	if err := os.WriteFile(path+DeltaSuffix, chain, 0o644); err != nil {
		t.Fatal(err)
	}
	live, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return sealV2(live)
}

// TestChainV3ResumeUpgrades is the path of a beepd job in flight across
// the upgrade to format v4: the BCS3 base and BCD3 frames an older
// build wrote load and report v3, the restored network runs round hash
// for round hash with the uninterrupted run, and the next tick on the
// chain's path writes a v4 base.
func TestChainV3ResumeUpgrades(t *testing.T) {
	g := graph.GNPAvgDegree(600, 6, rng.New(4))
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	var hashes []uint64
	observe := beep.WithObserver(func(round int, sent, heard []beep.Signal) {
		h := uint64(round)
		for i := range sent {
			h = (h ^ uint64(sent[i])<<8 ^ uint64(heard[i])) * 1099511628211
		}
		hashes = append(hashes, h)
	})
	live, err := beep.NewNetwork(g, proto, 7, observe)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if err := core.ApplyInit(live, core.InitRandom); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Stabilize(live, nil, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck")
	want := writeV3Chain(t, path, live, 2)

	got, info, err := Load(path)
	if err != nil {
		t.Fatalf("v3 chain rejected: %v", err)
	}
	if info.BaseFormat != "v3-binary" || info.DeltaFormat != "v3-binary" || info.Deltas != 2 {
		t.Fatalf("v3 chain reports base %q, %d links of %q", info.BaseFormat, info.Deltas, info.DeltaFormat)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("assembled v3 chain differs from the live state sealed at version 2")
	}

	resumed, err := beep.NewNetwork(g, proto, 99, observe)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.Restore(got); err != nil {
		t.Fatal(err)
	}
	run := func(net *beep.Network) []uint64 {
		hashes = nil
		if err := net.Corrupt([]int{10, 300, 599}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			net.Step()
		}
		return hashes
	}
	if a, b := run(live), run(resumed); !reflect.DeepEqual(a, b) {
		t.Fatal("the network restored from the v3 chain diverged from the uninterrupted run")
	}

	w := NewWriter(path)
	defer w.Close()
	if kind, _, err := w.Tick(resumed); err != nil || kind != "base" {
		t.Fatalf("first tick after the resume wrote %q (%v), want a base", kind, err)
	}
	if info := mustEqualLive(t, path, live); info.BaseFormat != "v4-binary" || info.Deltas != 0 {
		t.Fatalf("tick after the resume left base %q with %d links, want v4-binary alone", info.BaseFormat, info.Deltas)
	}
}

// TestChainMixedVersionRefused: a chain has one format version. A v4
// delta appended to a v3 base — even one that names the base's hash as
// its parent — is refused, naming link 1.
func TestChainMixedVersionRefused(t *testing.T) {
	net := chainNet(t)
	path := filepath.Join(t.TempDir(), "ck")
	writeV3Chain(t, path, net, 0)
	base, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	perturbAndSettle(t, net, rng.New(8), 3)
	d, err := net.CheckpointDelta(base.Hash)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := beep.EncodeDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+DeltaSuffix, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Load(path)
	if err == nil {
		t.Fatal("v4 delta on a v3 base accepted")
	}
	if !strings.Contains(err.Error(), "link 1") || !strings.Contains(err.Error(), "format version 4") {
		t.Fatalf("diagnostic does not name link 1 and its version: %v", err)
	}
	if err := beep.ApplyDelta(base, d); err == nil {
		t.Fatal("ApplyDelta patched a version-2 checkpoint with a version-4 delta")
	}
}
