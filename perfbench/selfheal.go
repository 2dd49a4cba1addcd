package main

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/beep"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// selfheal is the self-stabilization guarantee itself: a stabilized
// network takes a transient fault on a few vertices, recovers, idles,
// and takes a checkpoint tick. The frontier is tiny while the O(n)
// legality probe dominates; the dirty-word delta runs every op and a
// base every ckpt.CompactEvery+1 ops, so the sparse path and the
// checkpoint chain do their work here and not in coldstart.
//
// The benchmark size is a 512×512 torus, not the 1000×1000 instance of
// the repository's sparse and checkpoint benches: there the memory-bound
// probe took anywhere from 1.2 to 2.4 ms from one op to the next on a
// shared 2-vCPU host, and the median op moved by up to a fifth between
// runs of one seed.
type selfheal struct {
	rows, cols int // implicit torus
	faults     int // distinct vertices corrupted per op
	idle       int // idle rounds after recovery
}

// tickStats counts the checkpoint ticks of a run.
type tickStats struct {
	ticks, bases, bytes, dirtyWords int64
}

func (w selfheal) run(cfg *config) (*result, error) {
	res := &result{}
	var (
		net   *beep.Network
		chain *ckpt.Writer
		dir   string
		act   activity
		probe core.State
	)
	teardown := func() error {
		var err error
		if net != nil {
			net.Close()
			net = nil
		}
		if chain != nil {
			err = chain.Close()
			chain = nil
		}
		if dir != "" {
			err = errors.Join(err, os.RemoveAll(dir))
			dir = ""
		}
		return err
	}
	var err error
	res.setups, err = timeSetups(cfg, func(span int) error {
		id := cfg.tr.begin("graph.build", span, -1)
		topo := graph.ImplicitTorus(w.rows, w.cols)
		cfg.tr.end(id)
		var err error
		if dir, err = cfg.tempDir("selfheal"); err != nil {
			return err
		}
		net, err = beep.NewNetwork(topo, newProtocol(), mix(cfg.seed, streamOp, -1), act.options(cfg, topo.N())...)
		if err != nil {
			return err
		}
		if err := core.ApplyInit(net, core.InitRandom); err != nil {
			return err
		}
		if _, err := stabilize(cfg, net, &probe, span, -1); err != nil {
			return err
		}
		chain = ckpt.NewWriter(filepath.Join(dir, "selfheal.ck"))
		cp, err := net.Checkpoint()
		if err != nil {
			return err
		}
		_, err = chain.WriteBase(cp)
		return err
	}, teardown)
	if err != nil {
		return nil, errors.Join(err, teardown())
	}

	act = activity{} // count the ops' rounds, not the set-ups'
	n := net.N()
	totalWords := (n + 63) / 64
	var ticks tickStats
	// The output check verifies against a materialized copy of the
	// torus, which graph.Torus builds bit-identical to the implicit one:
	// VerifyMIS's generic path over the implicit backend took longer than
	// the op it checks, and would leave too few ops in a window.
	verifyGraph := graph.Torus(w.rows, w.cols)
	mask := make([]bool, n)
	faults := make([]int, 0, w.faults)
	seen := make(map[int]bool, w.faults)
	op := timedOp{
		do: func(idx, span int) (int, error) {
			src := rng.New(mix(cfg.seed, streamFault, idx))
			faults = faults[:0]
			clear(seen)
			for len(faults) < w.faults {
				if v := src.Intn(n); !seen[v] {
					seen[v] = true
					faults = append(faults, v)
				}
			}
			id := cfg.tr.begin("beep.corrupt", span, idx)
			err := net.Corrupt(faults)
			cfg.tr.end(id)
			if err != nil {
				return 0, err
			}
			rounds, err := stabilize(cfg, net, &probe, span, idx)
			if err != nil {
				return rounds, err
			}
			id = cfg.tr.begin("beep.idle_block", span, idx)
			for i := 0; i < w.idle; i++ {
				net.Step()
			}
			cfg.tr.end(id)
			return rounds, w.tick(cfg, net, chain, totalWords, &ticks, span, idx)
		},
		// The configuration after the idle rounds must still be the MIS
		// the recovery reached.
		check: func(int) (int, error) {
			if err := probe.Refresh(net); err != nil {
				return 0, err
			}
			probe.FillMISMask(mask)
			if err := graph.VerifyMISOf(verifyGraph, mask); err != nil {
				return 0, err
			}
			return graph.CountTrue(mask), nil
		},
	}
	res.measurement = measure(cfg, op, selfCPU)
	// The live heap is taken while the network and chain writer are
	// still referenced, and without the check's own graph and mask.
	verifyGraph, mask = nil, nil
	res.memMB = liveHeapMB()
	runtime.KeepAlive(chain)
	res.count("beep.active_frac", act.frac())
	if ticks.ticks > 0 {
		t := float64(ticks.ticks)
		res.count("ckpt.bytes_per_tick", float64(ticks.bytes)/t)
		res.count("ckpt.base_frac", float64(ticks.bases)/t)
		res.count("ckpt.dirty_words_per_tick", float64(ticks.dirtyWords)/t)
	}
	return res, teardown()
}

// tick takes one checkpoint exactly as stab.Supervisor does: a base
// when the chain's compaction policy asks for one, otherwise a delta of
// the dirty words; either way written and fsynced.
func (w selfheal) tick(cfg *config, net *beep.Network, chain *ckpt.Writer, totalWords int, st *tickStats, span, idx int) error {
	dirty := net.DirtyWords()
	st.ticks++
	st.dirtyWords += int64(dirty)
	if chain.NeedsBase(net.DirtyAll(), dirty, totalWords) {
		id := cfg.tr.begin("ckpt.base_capture", span, idx)
		cp, err := net.Checkpoint()
		cfg.tr.end(id)
		if err != nil {
			return err
		}
		id = cfg.tr.begin("ckpt.base_write", span, idx)
		nb, err := chain.WriteBase(cp)
		cfg.tr.end(id)
		st.bases++
		st.bytes += int64(nb)
		return err
	}
	id := cfg.tr.begin("ckpt.delta_capture", span, idx)
	d, err := net.CheckpointDelta(chain.ParentHash())
	cfg.tr.end(id)
	if err != nil {
		return err
	}
	id = cfg.tr.begin("ckpt.delta_append", span, idx)
	nb, err := chain.AppendDelta(d)
	cfg.tr.end(id)
	st.bytes += int64(nb)
	return err
}
