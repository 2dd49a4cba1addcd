// Command tracebeep runs a small instance of Algorithm 1 or 2 and
// prints a per-round trace: each vertex's level, beep, and stability,
// making the paper's dynamics visible at a glance.
//
// Usage:
//
//	tracebeep -family cycle:12 -rounds 40
//	tracebeep -family complete:6 -alg alg2-two-channel -init adversarial
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/atomicio"
	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/famspec"
	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracebeep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracebeep", flag.ContinueOnError)
	family := fs.String("family", "cycle:12", "graph family spec (keep it small; one line per round)")
	alg := fs.String("alg", "alg1-known-delta", "alg1-known-delta | alg1-own-degree | alg2-two-channel | alg1-adaptive")
	init := fs.String("init", "random", "fresh | random | adversarial | zero")
	seed := fs.Uint64("seed", 1, "random seed")
	rounds := fs.Int("rounds", 60, "maximum rounds to trace")
	svgPath := fs.String("svg", "", "write a level-heatmap SVG of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, err := famspec.Parse(*family, rng.New(*seed^0x9e37))
	if err != nil {
		return err
	}
	if g.N() > 64 {
		return fmt.Errorf("trace output is per-vertex; use a graph with at most 64 vertices (got %d)", g.N())
	}

	proto, err := core.ProtocolByName(*alg)
	if err != nil {
		return err
	}
	initMode, err := core.InitByName(*init)
	if err != nil {
		return err
	}

	var st core.State
	var lastSent []beep.Signal
	var rec *trace.Recorder
	net, err := beep.NewNetwork(g, proto, *seed, beep.WithObserver(func(round int, sent, heard []beep.Signal) {
		lastSent = append(lastSent[:0], sent...)
		if rec != nil {
			rec.Observer()(round, sent, heard)
		}
	}))
	if err != nil {
		return err
	}
	defer net.Close()
	if *svgPath != "" {
		rec = trace.NewRecorder(net, &st)
		rec.KeepLevels = true
	}
	if err := core.ApplyInit(net, initMode); err != nil {
		return err
	}

	fmt.Printf("graph %s  n=%d m=%d  alg=%s init=%s seed=%d\n", g.Name(), g.N(), g.M(), *alg, *init, *seed)
	fmt.Println("per round: level[beep-marker]; * = in MIS, . = stable non-MIS")

	inMIS, stable := make([]bool, g.N()), make([]bool, g.N())
	for r := 0; r <= *rounds; r++ {
		if err := st.Refresh(net); err != nil {
			return err
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "r%-4d", net.Round())
		st.FillMISMask(inMIS)
		st.FillStableMask(stable)
		for v := 0; v < g.N(); v++ {
			mark := " "
			if r > 0 && v < len(lastSent) && lastSent[v] != beep.Silent {
				mark = "!"
			}
			tag := ""
			switch {
			case inMIS[v]:
				tag = "*"
			case stable[v]:
				tag = "."
			}
			fmt.Fprintf(&sb, " %4d%s%s", st.Level(v), mark, tag)
		}
		fmt.Println(sb.String())
		if st.Stabilized() {
			fmt.Printf("stabilized after %d rounds; MIS verified: %v\n", net.Round(), st.VerifyMIS() == nil)
			return writeSVG(rec, &st, g.N(), *svgPath)
		}
		net.Step()
	}
	fmt.Printf("not stabilized within %d rounds (increase -rounds)\n", *rounds)
	return writeSVG(rec, &st, g.N(), *svgPath)
}

// writeSVG emits the level heatmap when requested, coloring each vertex
// against its ℓmax as the run's probe holds it.
func writeSVG(rec *trace.Recorder, st *core.State, n int, path string) error {
	if rec == nil || path == "" {
		return nil
	}
	caps := make([]int, n)
	for v := range caps {
		caps[v] = st.Cap(v)
	}
	if err := atomicio.WriteFile(path, func(w io.Writer) error {
		return rec.WriteLevelHeatmapSVG(w, caps, 6)
	}); err != nil {
		return err
	}
	fmt.Printf("heatmap written to %s\n", path)
	return nil
}
