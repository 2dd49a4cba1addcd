package dist

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/beep"
	"repro/internal/graph"
)

// This file defines the RPC payloads and the partition table: which
// vertex range each worker owns and which merged sender-bitset words
// it must receive before update (every word containing a neighbor of
// its range). The need sets are computed once from the graph at setup
// and filter the coordinator's per-round deliver deltas.

// joinMsg is the worker's hello (JSON payload of fJoin).
type joinMsg struct {
	Part  int    `json:"part"`
	Token string `json:"token"`
}

// configMsg bootstraps a worker (JSON payload of fConfig): the graph as
// an edge-list blob, the protocol/seed identity, and the worker's
// vertex range.
type configMsg struct {
	Protocol string `json:"protocol"`
	Seed     uint64 `json:"seed"`
	Channels int    `json:"channels"`
	Graph    []byte `json:"graph"`
	Lo       int    `json:"lo"`
	Hi       int    `json:"hi"`
}

// stateMsg is a worker's range state export (JSON payload of fStateOK):
// the checkpoint slice plus the level/cap export the coordinator's
// legality probe reads.
type stateMsg struct {
	Round    int         `json:"round"`
	Machines [][]int64   `json:"machines"`
	Streams  [][4]uint64 `json:"streams"`
	Levels   []int32     `json:"levels"`
	Caps     []int32     `json:"caps"`
}

// stateDeltaMsg is a worker's incremental range-state export (JSON
// payload of fStateDeltaOK): the machine and stream states of exactly
// the vertices whose slab word was dirtied since the worker's previous
// export (the whole range after a restore). Verts is ascending and
// bounded to the worker's range, so adjacent owners of a shared
// boundary word report disjoint vertex sets. The legality probe's
// levels/caps are not needed on checkpoint cadence and are omitted.
type stateDeltaMsg struct {
	Round    int         `json:"round"`
	Verts    []int32     `json:"verts"`
	Machines [][]int64   `json:"machines"`
	Streams  [][4]uint64 `json:"streams"`
}

// partTable is the static exchange plan for one partitioned run.
type partTable struct {
	n      int
	words  int
	ranges [][2]int
	// need[p] is partition p's need set as a bitset over word indices:
	// every word containing a neighbor of p's range (what p's gather
	// reads).
	need [][]uint64
}

// computeRanges splits [0, n) into parts contiguous ranges, 64-aligned
// when the per-partition share is at least a word (mirroring the
// FlatParallel shard padding); smaller shares split plainly and rely on
// the coordinator's OR-merge for shared edge words.
func computeRanges(n, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	if parts > n && n > 0 {
		parts = n
	}
	per := (n + parts - 1) / parts
	if per > 64 {
		per = (per + 63) &^ 63
	}
	ranges := make([][2]int, 0, parts)
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		ranges = append(ranges, [2]int{lo, hi})
	}
	if len(ranges) == 0 {
		ranges = [][2]int{{0, 0}}
	}
	return ranges
}

// buildPartTable computes the need sets of the ranges.
func buildPartTable(g graph.Topology, ranges [][2]int) *partTable {
	n := g.N()
	t := &partTable{n: n, words: (n + 63) / 64, ranges: ranges}
	csr, _ := g.(*graph.Graph)
	var buf []int32
	if csr == nil {
		buf = make([]int32, g.MaxDegree())
	}
	for _, r := range ranges {
		ns := make([]uint64, (t.words+63)/64)
		for v := r[0]; v < r[1]; v++ {
			var row []int32
			if csr != nil {
				row = csr.Neighbors(v)
			} else {
				row = g.NeighborsInto(v, buf)
			}
			for _, u := range row {
				wi := int(u >> 6)
				ns[wi>>6] |= 1 << uint(wi&63)
			}
		}
		t.need = append(t.need, ns)
	}
	return t
}

// --- binary round payloads -------------------------------------------

// encodeRound is the emit/state request payload: just the round.
func encodeRound(r int) []byte {
	return binary.LittleEndian.AppendUint32(nil, uint32(r))
}

func decodeRound(b []byte) (int, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("dist: round payload is %d bytes, want 4", len(b))
	}
	return int(binary.LittleEndian.Uint32(b)), nil
}

// encodeDeliverOK packs the deliver reply: round, changed flag, range
// trace digest.
func encodeDeliverOK(round int, changed bool, digest uint64) []byte {
	b := make([]byte, 0, 13)
	b = binary.LittleEndian.AppendUint32(b, uint32(round))
	if changed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return binary.LittleEndian.AppendUint64(b, digest)
}

func decodeDeliverOK(b []byte) (round int, changed bool, digest uint64, err error) {
	if len(b) != 13 {
		return 0, false, 0, fmt.Errorf("dist: deliver reply is %d bytes, want 13", len(b))
	}
	return int(binary.LittleEndian.Uint32(b)), b[4] != 0, binary.LittleEndian.Uint64(b[5:]), nil
}

// --- sparse (delta) round payloads ------------------------------------
//
// The delta exchange replaces the position-implicit word tables with
// explicit (index, value) pairs covering only the words that CHANGED
// since the previous round — after the transient phase, almost none.
// Both directions use the same per-channel block layout:
//
//	count   4 bytes   pair count for this channel
//	pairs   12 bytes  word index (4) + word value (8), ascending
//
// Baselines on both sides start zeroed and are re-zeroed together on
// every restore (coordinator resetExchange ↔ worker ResetSparse), so
// the first round after any rewind re-exchanges every nonzero word.

// appendWordPairs appends the per-channel (count, pairs...) blocks.
func appendWordPairs(b []byte, channels int, pairs func(c int) ([]int32, []uint64)) []byte {
	for c := 0; c < channels; c++ {
		wis, vals := pairs(c)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(wis)))
		for i, wi := range wis {
			b = binary.LittleEndian.AppendUint32(b, uint32(wi))
			b = binary.LittleEndian.AppendUint64(b, vals[i])
		}
	}
	return b
}

// readWordPairs decodes the per-channel blocks, bounds-checking every
// word index against the table's word count before invoking apply.
func readWordPairs(b []byte, channels, words int, apply func(c, wi int, w uint64)) error {
	off := 0
	for c := 0; c < channels; c++ {
		if len(b)-off < 4 {
			return fmt.Errorf("dist: delta payload truncated at channel %d", c)
		}
		cnt := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if cnt > (len(b)-off)/12 {
			return fmt.Errorf("dist: delta payload claims %d pairs, only %d bytes left", cnt, len(b)-off)
		}
		for i := 0; i < cnt; i++ {
			wi := int(binary.LittleEndian.Uint32(b[off:]))
			val := binary.LittleEndian.Uint64(b[off+4:])
			off += 12
			if wi >= words {
				return fmt.Errorf("dist: delta word %d out of range (%d words)", wi, words)
			}
			apply(c, wi, val)
		}
	}
	if off != len(b) {
		return fmt.Errorf("dist: delta payload has %d trailing bytes", len(b)-off)
	}
	return nil
}

// encodeEmitOKSparse packs a sparse emit reply: round, drew flag, then
// the upload delta blocks.
func encodeEmitOKSparse(round int, drew bool, channels int, pairs func(c int) ([]int32, []uint64)) []byte {
	b := make([]byte, 0, 64)
	b = binary.LittleEndian.AppendUint32(b, uint32(round))
	if drew {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return appendWordPairs(b, channels, pairs)
}

func decodeEmitOKSparse(b []byte, channels, words int, apply func(c, wi int, w uint64)) (round int, drew bool, err error) {
	if len(b) < 5 {
		return 0, false, fmt.Errorf("dist: sparse emit reply is %d bytes, want >= 5", len(b))
	}
	if err := readWordPairs(b[5:], channels, words, apply); err != nil {
		return 0, false, err
	}
	return int(binary.LittleEndian.Uint32(b)), b[4] != 0, nil
}

// encodeDeliverSparse packs a sparse deliver request: round, then the
// changed-merged-word delta blocks filtered to the partition's need
// set.
func encodeDeliverSparse(round, channels int, pairs func(c int) ([]int32, []uint64)) []byte {
	b := make([]byte, 0, 64)
	b = binary.LittleEndian.AppendUint32(b, uint32(round))
	return appendWordPairs(b, channels, pairs)
}

func decodeDeliverSparse(b []byte, channels, words int, apply func(c, wi int, w uint64)) (round int, err error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("dist: sparse deliver request is %d bytes, want >= 4", len(b))
	}
	if err := readWordPairs(b[4:], channels, words, apply); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(b)), nil
}

// --- trace digests ----------------------------------------------------

// RangeDigest is the FNV-1a digest of one partition's slice of a
// round's signals — the distributed analogue of stab.TraceHash, split
// at the partition boundaries so per-range digests can be compared
// against a single-process reference observing the same boundaries.
func RangeDigest(round, lo int, sent, heard []beep.Signal) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(round))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(lo))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(len(sent)))
	h.Write(buf[:])
	for i := range sent {
		h.Write([]byte{byte(sent[i]), byte(heard[i])})
	}
	return h.Sum64()
}

// CombineDigests folds the per-partition digests of one round (in
// partition order) into the round hash recorded in Result.RoundHashes.
func CombineDigests(round int, parts []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(round))
	h.Write(buf[:])
	for _, d := range parts {
		binary.LittleEndian.PutUint64(buf[:], d)
		h.Write(buf[:])
	}
	return h.Sum64()
}
