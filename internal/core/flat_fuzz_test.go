package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/beep"
	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/rng"
)

// untouched is a sentinel no kernel ever writes into Sent.
const untouched beep.Signal = 0x80

// FuzzFlatEmitDrawEquivalence fuzzes the contract that makes the flat
// kernels trace-exact: for an arbitrary level configuration, activity
// mask, skip set and stripe window, Emit must produce the same signals
// AND consume each visited vertex's private stream exactly as the
// per-machine Emit would — the same number of draws in the same order —
// while leaving every unvisited vertex (outside the window, in an
// unmarked word, or skipped) and its stream untouched. The draw-sequence
// part is checked by comparing the next word of every stream after the
// pass: a kernel that short-circuits a draw (or adds one) desynchronizes
// the stream and fails here even when this round's signals happen to
// match. drewW must cover every word where a stream advanced and no
// unvisited word. Update is checked the same way against
// Machine.Update, with changedW covering every word whose machine state
// moved and no unvisited word (a kernel may over-report, never miss).
//
// mask packs the fuzzed activity and skip sets: bit wi (wi < 8) marks
// slab word wi active, and when bit 63 is set, vertex v is skipped iff
// bit 8 + v%55 is set.
func FuzzFlatEmitDrawEquivalence(f *testing.F) {
	f.Add(uint64(1), ^uint64(0)>>1, []byte{0, 1, 2, 250, 7, 130})
	f.Add(uint64(99), uint64(0xff), []byte{128, 128, 128})
	f.Add(uint64(7), uint64(0x5)|1<<63|0x1234_5678_9a00, bytes.Repeat([]byte{3, 0, 9, 200, 1}, 60))
	f.Fuzz(func(t *testing.T, seed, mask uint64, data []byte) {
		if len(data) < 3 {
			return
		}
		if len(data) > 512 {
			data = data[:512]
		}
		n := len(data)
		lo, hi := int(data[0])%(n/2+1), n-int(data[1])%(n/2+1)
		act := []uint64{mask & 0xff}
		var skip *bitset.Set
		if mask>>63 == 1 {
			skip = &bitset.Set{}
			skip.Resize(n)
			for v := 0; v < n; v++ {
				if mask>>(8+v%55)&1 == 1 {
					skip.Set1(v)
				}
			}
		}
		visited := func(v int) bool {
			return v >= lo && v < hi && act[0]>>(v>>6)&1 == 1 && (skip == nil || !skip.Get(v))
		}
		var visitedW uint64 // words holding a visited vertex
		for v := 0; v < n; v++ {
			if visited(v) {
				visitedW |= 1 << uint(v>>6)
			}
		}
		g := graph.Cycle(n)
		protos := []beep.Protocol{
			NewAlg1(KnownMaxDegreeExact(DefaultC1KnownDelta)),
			NewAlg2(NeighborhoodMaxDegree(DefaultC1TwoHop)),
			NewAdaptiveAlg1(),
		}
		for pi, proto := range protos {
			bp := proto.(beep.BatchProtocol)
			kernelMs, bulk := bp.NewMachines(g)
			refMs, _ := bp.NewMachines(g)
			ops, ok := bulk.(beep.FlatProtocol)
			if !ok {
				t.Fatalf("proto %d: bulk %T has no flat kernels", pi, bulk)
			}
			// Install the fuzzed levels on both cohorts (SetLevel clamps
			// into each machine's valid space).
			for v := 0; v < n; v++ {
				l := int(int8(data[v]))
				kernelMs[v].(Leveled).SetLevel(l)
				refMs[v].(Leveled).SetLevel(l)
			}
			// Two identically derived stream families.
			rootK, rootR := rng.New(seed), rng.New(seed)
			srcsK := make([]*rng.Source, n)
			srcsR := make([]*rng.Source, n)
			for v := 0; v < n; v++ {
				srcsK[v] = rootK.Split(uint64(v))
				srcsR[v] = rootR.Split(uint64(v))
			}
			env := &beep.FlatEnv{
				Sent:  make([]beep.Signal, n),
				Heard: make([]beep.Signal, n),
				Srcs:  srcsK,
				Skip:  skip,
			}
			for v := range env.Sent {
				env.Sent[v] = untouched
			}
			drewW := make([]uint64, 1)
			ops.Emit(env, act, drewW, lo, hi)
			var wantDrew uint64
			for v := 0; v < n; v++ {
				want := untouched
				if visited(v) {
					want = refMs[v].Emit(srcsR[v])
				}
				if env.Sent[v] != want {
					t.Fatalf("proto %d vertex %d: kernel emitted %v, want %v (level %d, visited %v)",
						pi, v, env.Sent[v], want, int(int8(data[v])), visited(v))
				}
			}
			// Draw-sequence equivalence: every stream must sit at the
			// same position after the pass.
			for v := 0; v < n; v++ {
				k, r := srcsK[v].Uint64(), srcsR[v].Uint64()
				if k != r {
					t.Fatalf("proto %d vertex %d: stream desynchronized after emit (kernel next=%#x, machine next=%#x)",
						pi, v, k, r)
				}
				if k != rng.New(seed).Split(uint64(v)).Uint64() {
					wantDrew |= 1 << uint(v>>6) // this stream advanced
				}
			}
			if wantDrew&^drewW[0] != 0 || drewW[0]&^visitedW != 0 {
				t.Fatalf("proto %d: drewW %#x, streams advanced in words %#x, visited words %#x", pi, drewW[0], wantDrew, visitedW)
			}

			// Update equivalence on a fuzzed sent/heard pattern: the
			// kernels must apply the same transitions the machines do,
			// on the visited vertices only.
			for v := 0; v < n; v++ {
				env.Sent[v] = beep.Signal(data[(v+2)%n]>>2) & 3
				env.Heard[v] = beep.Signal(data[(v+1)%n]) & 3
			}
			changedW := make([]uint64, 1)
			ops.Update(env, act, changedW, lo, hi)
			var wantChanged uint64
			for v := 0; v < n; v++ {
				before := refMs[v].(beep.StateCodec).AppendState(nil)
				if visited(v) {
					refMs[v].Update(env.Sent[v], env.Heard[v])
				}
				after := refMs[v].(beep.StateCodec).AppendState(nil)
				if !slices.Equal(before, after) {
					wantChanged |= 1 << uint(v>>6)
				}
				if got := kernelMs[v].(beep.StateCodec).AppendState(nil); !slices.Equal(got, after) {
					t.Fatalf("proto %d vertex %d: kernel state %v, machine state %v after update (visited %v)",
						pi, v, got, after, visited(v))
				}
			}
			if wantChanged&^changedW[0] != 0 || changedW[0]&^visitedW != 0 {
				t.Fatalf("proto %d: changedW %#x, machine state moved in words %#x, visited words %#x", pi, changedW[0], wantChanged, visitedW)
			}
		}
	})
}
