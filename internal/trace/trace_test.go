package trace

import (
	"math/bits"
	"strings"
	"testing"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

func buildRecorded(t *testing.T, keepLevels bool) (*beep.Network, *Recorder) {
	t.Helper()
	g := graph.Cycle(12)
	proto := core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
	var rec *Recorder
	net, err := beep.NewNetwork(g, proto, 5, beep.WithObserver(func(round int, sent, heard []beep.Signal) {
		rec.Observer()(round, sent, heard)
	}))
	if err != nil {
		t.Fatal(err)
	}
	rec = NewRecorder(net, new(core.State))
	rec.KeepLevels = keepLevels
	net.RandomizeAll()
	return net, rec
}

func TestRecorderCapturesEveryRound(t *testing.T) {
	net, rec := buildRecorded(t, false)
	defer net.Close()
	const rounds = 25
	for i := 0; i < rounds; i++ {
		net.Step()
	}
	stats := rec.Stats()
	if len(stats) != rounds {
		t.Fatalf("recorded %d rounds, want %d", len(stats), rounds)
	}
	for i, s := range stats {
		if s.Round != i+1 {
			t.Fatalf("row %d has round %d", i, s.Round)
		}
		if s.Stable < 0 || s.Stable > net.N() || s.Beeping < 0 || s.Beeping > net.N() {
			t.Fatalf("row %d out of range: %+v", i, s)
		}
		if s.MinLevel > s.MaxLevel {
			t.Fatalf("row %d: min %d > max %d", i, s.MinLevel, s.MaxLevel)
		}
		if float64(s.MinLevel) > s.MeanLevel || s.MeanLevel > float64(s.MaxLevel) {
			t.Fatalf("row %d: mean outside min/max: %+v", i, s)
		}
	}
}

func TestRecorderStableMonotoneAfterStabilization(t *testing.T) {
	net, rec := buildRecorded(t, false)
	defer net.Close()
	stop := func() bool {
		st, err := core.Snapshot(net)
		return err == nil && st.Stabilized()
	}
	if _, ok := net.Run(100000, stop); !ok {
		t.Fatal("did not stabilize")
	}
	stats := rec.Stats()
	last := stats[len(stats)-1]
	if last.Stable != net.N() {
		t.Fatalf("final stable count %d, want %d", last.Stable, net.N())
	}
	if last.InMIS == 0 {
		t.Fatal("no MIS members at stabilization")
	}
}

func TestRecorderLevelHistory(t *testing.T) {
	net, rec := buildRecorded(t, true)
	defer net.Close()
	for i := 0; i < 10; i++ {
		net.Step()
	}
	levels := rec.Levels()
	if len(levels) != 10 {
		t.Fatalf("history rows %d", len(levels))
	}
	for _, row := range levels {
		if len(row) != net.N() {
			t.Fatalf("history row width %d", len(row))
		}
	}
}

func TestWriteCSV(t *testing.T) {
	net, rec := buildRecorded(t, true)
	defer net.Close()
	for i := 0; i < 5; i++ {
		net.Step()
	}
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("csv lines %d, want header + 5", len(lines))
	}
	if !strings.HasPrefix(lines[0], "round,beeping,") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,") {
		t.Fatalf("first data row %q", lines[1])
	}

	sb.Reset()
	if err := rec.WriteLevelsCSV(&sb); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(rows) != 5 {
		t.Fatalf("level rows %d", len(rows))
	}
	if cols := strings.Count(rows[0], ","); cols != net.N() {
		t.Fatalf("level columns %d, want %d", cols, net.N())
	}
}

func TestWriteLevelsCSVRequiresKeep(t *testing.T) {
	net, rec := buildRecorded(t, false)
	defer net.Close()
	net.Step()
	var sb strings.Builder
	if err := rec.WriteLevelsCSV(&sb); err == nil {
		t.Fatal("WriteLevelsCSV without KeepLevels accepted")
	}
}

// levelLessProto exercises the non-core fallback path.
type levelLessProto struct{}

func (levelLessProto) Channels() int { return 1 }
func (levelLessProto) NewMachine(int, graph.Topology) beep.Machine {
	return &levelLessMachine{}
}

type levelLessMachine struct{}

func (*levelLessMachine) Emit(*rng.Source) beep.Signal { return beep.Chan1 }
func (*levelLessMachine) Update(_, _ beep.Signal)      {}
func (*levelLessMachine) Randomize(*rng.Source)        {}

func TestRecorderWithoutLevels(t *testing.T) {
	g := graph.Path(4)
	var rec *Recorder
	net, err := beep.NewNetwork(g, levelLessProto{}, 1, beep.WithObserver(func(round int, sent, heard []beep.Signal) {
		rec.Observer()(round, sent, heard)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	rec = NewRecorder(net, new(core.State))
	net.Step()
	stats := rec.Stats()
	if len(stats) != 1 || stats[0].Beeping != 4 {
		t.Fatalf("fallback stats %+v", stats)
	}
}

func TestWriteLevelHeatmapSVG(t *testing.T) {
	net, rec := buildRecorded(t, true)
	defer net.Close()
	const rounds = 8
	for i := 0; i < rounds; i++ {
		net.Step()
	}
	caps := make([]int, net.N())
	for v := range caps {
		caps[v] = net.Machine(v).(core.Leveled).Cap()
	}
	var sb strings.Builder
	if err := rec.WriteLevelHeatmapSVG(&sb, caps, 4); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "<svg ") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("not well-formed SVG")
	}
	// One background rect plus rounds×n cells.
	if got, want := strings.Count(out, "<rect "), 1+rounds*net.N(); got != want {
		t.Fatalf("rect count %d, want %d", got, want)
	}
}

func TestWriteLevelHeatmapSVGErrors(t *testing.T) {
	net, rec := buildRecorded(t, false)
	defer net.Close()
	net.Step()
	var sb strings.Builder
	if err := rec.WriteLevelHeatmapSVG(&sb, make([]int, net.N()), 4); err == nil {
		t.Fatal("missing KeepLevels accepted")
	}
	net2, rec2 := buildRecorded(t, true)
	defer net2.Close()
	if err := rec2.WriteLevelHeatmapSVG(&sb, nil, 4); err == nil {
		t.Fatal("empty history accepted")
	}
	net2.Step()
	if err := rec2.WriteLevelHeatmapSVG(&sb, []int{1}, 4); err == nil {
		t.Fatal("caps length mismatch accepted")
	}
}

func TestLevelColorEndpoints(t *testing.T) {
	if levelColor(-8, 8) != "#004cff" && levelColor(-8, 8) != "#004dff" {
		t.Fatalf("committed color %s", levelColor(-8, 8))
	}
	if got := levelColor(0, 8); got != "#ffffff" {
		t.Fatalf("neutral color %s", got)
	}
	if got := levelColor(8, 8); got != "#ff4c00" && got != "#ff4d00" {
		t.Fatalf("cap color %s", got)
	}
	// Degenerate cap does not divide by zero.
	_ = levelColor(0, 0)
}

// TestRecorderAndStopProbeShareNetwork runs a Recorder (which refreshes
// its probe inside the round observer) on the stop probe refreshed after
// every Step — the pairing beepmis -csv and E11 put on one network — and
// requires the recorder's rows and the stop probe to agree on every
// round with an oracle built straight from the slab, through corruption
// bursts: the stop check's Refresh, which finds the feed already read
// by the observer's, must still answer for the current round. With one
// State reading the network's change feed, a quiet round (an empty
// frontier: no vertex drew or changed) exports no slab word at all; a
// recorder with a probe of its own would alternate the feed with the
// stop probe and make both re-export all n levels every round.
func TestRecorderAndStopProbeShareNetwork(t *testing.T) {
	g := graph.GNPAvgDegree(320, 6, rng.New(3))
	for _, e := range []struct {
		name string
		opts []beep.Option
	}{
		{"sequential", nil},
		{"forced-delta", []beep.Option{beep.WithForcedDelta()}},
		{"flatparallel-w3", []beep.Option{beep.WithEngine(beep.FlatParallel), beep.WithWorkers(3)}},
	} {
		t.Run(e.name, func(t *testing.T) {
			proto := &countingProto{BatchProtocol: core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))}
			var rec *Recorder
			active := -1
			net, err := beep.NewNetwork(g, proto, 17, append(e.opts,
				beep.WithStatsObserver(func(_, act, _ int) { active = act }),
				beep.WithObserver(func(round int, sent, heard []beep.Signal) {
					rec.Observer()(round, sent, heard)
				}))...)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			var stop core.State
			rec = NewRecorder(net, &stop)
			rec.KeepLevels = true
			net.RandomizeAll()
			le := proto.slab.flatSlab // the oracle's reads are not counted
			levels, caps := make([]int32, net.N()), make([]int32, net.N())
			lv, cp := make([]int, net.N()), make([]int, net.N())
			faultSrc := rng.New(4)
			quiet := 0
			for r := 0; r < 300; r++ {
				if r%60 == 30 {
					if err := net.Corrupt(faultSrc.Perm(net.N())[:5]); err != nil {
						t.Fatal(err)
					}
				}
				exported := proto.slab.words
				net.Step()
				if err := stop.Refresh(net); err != nil {
					t.Fatal(err)
				}
				if exported = proto.slab.words - exported; active == 0 {
					quiet++
					if exported != 0 {
						t.Fatalf("quiet round %d exported %d slab words, want 0", net.Round(), exported)
					}
				}
				le.ExportLevels(levels, caps, nil)
				for v := range levels {
					lv[v], cp[v] = int(levels[v]), int(caps[v])
				}
				oracle := core.NewState(g, lv, cp)
				wantMIS := oracle.MISMask()
				row := rec.Stats()[len(rec.Stats())-1]
				if row.Stable != oracle.StableCount() || row.InMIS != graph.CountTrue(wantMIS) {
					t.Fatalf("round %d: recorder has |S|=%d |I|=%d, oracle %d and %d",
						net.Round(), row.Stable, row.InMIS, oracle.StableCount(), graph.CountTrue(wantMIS))
				}
				if stop.Stabilized() != oracle.Stabilized() || stop.StableCount() != oracle.StableCount() {
					t.Fatalf("round %d: stop probe has stabilized=%v |S|=%d, oracle %v and %d",
						net.Round(), stop.Stabilized(), stop.StableCount(), oracle.Stabilized(), oracle.StableCount())
				}
				recLevels := rec.Levels()[len(rec.Levels())-1]
				gotMIS := stop.MISMask()
				for v := range lv {
					if recLevels[v] != lv[v] || stop.Level(v) != lv[v] || gotMIS[v] != wantMIS[v] {
						t.Fatalf("round %d vertex %d: recorder ℓ=%d, stop probe ℓ=%d in MIS %v; slab ℓ=%d in MIS %v",
							net.Round(), v, recLevels[v], stop.Level(v), gotMIS[v], lv[v], wantMIS[v])
					}
				}
			}
			if quiet == 0 {
				t.Fatal("no quiet round in 300: the export check never ran")
			}
		})
	}
}

// countingSlab wraps a core slab and counts the slab words State.Refresh
// exports from it.
type countingSlab struct {
	flatSlab
	words int
}

type flatSlab interface {
	beep.FlatProtocol
	core.LevelExporter
}

func (c *countingSlab) ExportLevels(levels, caps []int32, words []uint64) {
	if words == nil {
		c.words += (len(levels) + 63) / 64
	}
	for _, w := range words {
		c.words += bits.OnesCount64(w)
	}
	c.flatSlab.ExportLevels(levels, caps, words)
}

// countingProto builds its protocol's machines and hands the network a
// countingSlab in place of the slab.
type countingProto struct {
	beep.BatchProtocol
	slab *countingSlab
}

func (p *countingProto) NewMachines(g graph.Topology) ([]beep.Machine, any) {
	ms, bulk := p.BatchProtocol.NewMachines(g)
	p.slab = &countingSlab{flatSlab: bulk.(flatSlab)}
	return ms, p.slab
}
