package repro

import (
	"bytes"
	"testing"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestInstanceLevelIsReadOnly pins Level as a pure query: it reads the
// refreshed legality probe, so it reports the slab's levels — after a
// fault too — without marking a single word dirty for the next
// checkpoint delta.
func TestInstanceLevelIsReadOnly(t *testing.T) {
	g, _ := NewGraph(300, cycleEdges(300))
	inst, err := NewInstance(g, WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.RunUntilStabilized(100000); err != nil {
		t.Fatal(err)
	}
	// Save captures a checkpoint, which arms the dirty-word baseline.
	if err := inst.Save(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	le := inst.net.BulkState().(core.LevelExporter)
	levels, caps := make([]int32, g.N()), make([]int32, g.N())
	for _, faults := range []int{0, 7} {
		if err := inst.InjectFault(faults); err != nil {
			t.Fatal(err)
		}
		dirty := inst.net.DirtyWords()
		if faults == 0 && dirty != 0 {
			t.Fatalf("%d dirty words right after a checkpoint", dirty)
		}
		le.ExportLevels(levels, caps, nil)
		for v := 0; v < g.N(); v++ {
			got, err := inst.Level(v)
			if err != nil {
				t.Fatal(err)
			}
			if got != int(levels[v]) {
				t.Fatalf("after %d faults: Level(%d) = %d, slab holds %d", faults, v, got, levels[v])
			}
		}
		if got := inst.net.DirtyWords(); got != dirty {
			t.Fatalf("after %d faults: %d Level calls moved DirtyWords from %d to %d", faults, g.N(), dirty, got)
		}
	}
}

// stabilizedTorus512 returns an Alg1 network on the implicit 512×512
// torus run to a legal configuration, with the probe that detected it.
func stabilizedTorus512(tb testing.TB) (*beep.Network, *core.State) {
	tb.Helper()
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	net, err := beep.NewNetwork(graph.ImplicitTorus(512, 512), proto, 1)
	if err != nil {
		tb.Fatal(err)
	}
	net.RandomizeAll()
	probe := &core.State{}
	for r := 0; ; r++ {
		if err := probe.Refresh(net); err != nil {
			tb.Fatal(err)
		}
		if probe.Stabilized() {
			return net, probe
		}
		if r == 100000 {
			tb.Fatalf("512×512 torus not stabilized within %d rounds", r)
		}
		net.Step()
	}
}

// TestProbeSteadyStateZeroAllocs pins the stop check's allocation
// contract on the stabilized 512×512 torus: a steady-state round —
// Step, Refresh, Stabilized — allocates nothing.
func TestProbeSteadyStateZeroAllocs(t *testing.T) {
	net, probe := stabilizedTorus512(t)
	defer net.Close()
	allocs := testing.AllocsPerRun(100, func() {
		net.Step()
		if err := probe.Refresh(net); err != nil {
			t.Fatal(err)
		}
		if !probe.Stabilized() {
			t.Fatal("stabilized torus left its legal configuration")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state probe round allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkProbeRecovery512 measures fault recovery as the stop check
// sees it: a stabilized 512×512 implicit torus takes 64 corrupted
// vertices (one per 4096-vertex block), then probes (Refresh +
// Stabilized) and steps until legal. The probe reads only the slab
// words the engine reports changed, so an iteration costs the frontier,
// not n.
func BenchmarkProbeRecovery512(b *testing.B) {
	net, probe := stabilizedTorus512(b)
	defer net.Close()
	const faults = 64
	block := net.N() / faults
	src := rng.New(64)
	vs := make([]int, faults)
	rounds := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range vs {
			vs[k] = k*block + src.Intn(block)
		}
		if err := net.Corrupt(vs); err != nil {
			b.Fatal(err)
		}
		for {
			if err := probe.Refresh(net); err != nil {
				b.Fatal(err)
			}
			if probe.Stabilized() {
				break
			}
			net.Step()
			rounds++
		}
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}
