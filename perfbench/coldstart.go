package main

import (
	"fmt"
	"runtime"

	"repro/internal/beep"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// newProtocol is Algorithm 1 with known Δ, the protocol of every
// workload.
func newProtocol() beep.Protocol {
	return core.NewAlg1(core.KnownMaxDegreeExact(core.DefaultC1KnownDelta))
}

// maxRounds is core.Run's default budget for n vertices.
func maxRounds(n int) int {
	log := 0
	for x := n; x > 1; x >>= 1 {
		log++
	}
	return 1000*(log+1) + 1000
}

// stabilize steps net until the legality probe holds, in core.Run's
// order: probe, then step and probe each round. It returns the rounds
// stepped. Each step and each probe is a span under parent.
func stabilize(cfg *config, net *beep.Network, probe *core.State, parent, op int) (int, error) {
	budget := maxRounds(net.N())
	for r := 0; ; r++ {
		id := cfg.tr.begin("core.probe", parent, op)
		err := probe.Refresh(net)
		legal := err == nil && probe.Stabilized()
		cfg.tr.end(id)
		if err != nil || legal {
			return r, err
		}
		if r == budget {
			return r, fmt.Errorf("%w: %d rounds", core.ErrNotStabilized, r)
		}
		id = cfg.tr.begin("beep.step", parent, op)
		net.Step()
		cfg.tr.end(id)
	}
}

// misCheck verifies a probed configuration, reusing its mask buffer.
type misCheck struct{ mask []bool }

// verify checks that the probe's configuration of n vertices is a
// maximal independent set and returns its size.
func (c *misCheck) verify(probe *core.State, n int) (int, error) {
	if err := probe.VerifyMIS(); err != nil {
		return 0, err
	}
	if cap(c.mask) < n {
		c.mask = make([]bool, n)
	}
	c.mask = c.mask[:n]
	probe.FillMISMask(c.mask)
	return graph.CountTrue(c.mask), nil
}

// activity sums beep.WithStatsObserver's per-round active vertices and
// network sizes: their ratio is the sparse path's useful-work share.
type activity struct{ active, vertices int64 }

// options installs the counting observer in traced runs; untraced runs
// build networks exactly as users do.
func (a *activity) options(cfg *config, n int) []beep.Option {
	if !cfg.traced {
		return nil
	}
	return []beep.Option{beep.WithStatsObserver(func(_, active, _ int) {
		a.active += int64(active)
		a.vertices += int64(n)
	})}
}

func (a *activity) frac() float64 {
	if a.vertices == 0 {
		return 0
	}
	return float64(a.active) / float64(a.vertices)
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gnpGraphs generates the graphs a workload's ops cycle through, each
// one a graph.build span.
func gnpGraphs(cfg *config, count, n int, degree float64, span int) []*graph.Graph {
	graphs := make([]*graph.Graph, count)
	for i := range graphs {
		id := cfg.tr.begin("graph.build", span, -1)
		graphs[i] = graph.GNPAvgDegree(n, degree, rng.New(mix(cfg.seed, streamGraph, i)))
		cfg.tr.end(id)
	}
	return graphs
}

// coldstart is Theorem 2.1's setting: a fresh network from a random
// configuration, stepped to a verified MIS. The round kernels and the
// legality probe do nearly all the work and the frontier stays wide; no
// checkpoint, service or exchange code runs.
type coldstart struct {
	n      int     // vertices per graph
	degree float64 // expected average degree
	graphs int     // distinct graphs the ops cycle through
}

func (w coldstart) run(cfg *config) (*result, error) {
	res := &result{}
	var graphs []*graph.Graph
	var err error
	res.setups, err = timeSetups(cfg, func(span int) error {
		graphs = gnpGraphs(cfg, w.graphs, w.n, w.degree, span)
		return nil
	}, func() error { return nil })
	if err != nil {
		return nil, err
	}

	var act activity
	var probe core.State
	var mis misCheck
	var net *beep.Network
	op := timedOp{
		do: func(idx, span int) (int, error) {
			if net != nil {
				net.Close()
			}
			g := graphs[idx%len(graphs)]
			id := cfg.tr.begin("beep.new_network", span, idx)
			var err error
			net, err = beep.NewNetwork(g, newProtocol(), mix(cfg.seed, streamOp, idx), act.options(cfg, g.N())...)
			if err == nil {
				err = core.ApplyInit(net, core.InitRandom)
			}
			cfg.tr.end(id)
			if err != nil {
				return 0, err
			}
			probe = core.State{} // core.Run starts each run with a fresh probe
			return stabilize(cfg, net, &probe, span, idx)
		},
		check: func(int) (int, error) { return mis.verify(&probe, net.N()) },
	}
	res.measurement = measure(cfg, op, selfCPU)
	// The live heap is taken while the graphs and the last op's network
	// are still referenced.
	res.memMB = liveHeapMB()
	runtime.KeepAlive(graphs)
	if net != nil {
		net.Close()
	}
	res.count("beep.active_frac", act.frac())
	return res, nil
}
