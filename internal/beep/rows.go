package beep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// State rows: the unit of checkpointable per-vertex state. A row is one
// vertex's random-stream state plus its machine state
// (StateCodec.AppendState). Rows leave a network by one capture
// (Checkpoint, CheckpointDelta, Partition.AppendDirtyRows) and enter it
// by one install (Restore, InstallRows). In binary they travel in one
// layout everywhere:
//
//	nidx     u32
//	index    nidx × u32    vertex indices (Partition exports) or slab
//	                       word indices (delta frames)
//	count    u32
//	streams  count × 32 bytes
//	machines count × (uvarint length, that many zigzag varints)
//
// Delta frames (BCD4, BCD3) carry their dirty words and vertex states in this
// section; a distributed worker ships its dirty rows in it, and the
// coordinator installs them into a network with InstallRows. The
// decoder accepts only the encoder's canonical bytes (minimal varints),
// so a decoded section re-encodes to exactly the bytes it came from.

// StateRows is one decoded row section. For a Partition export, Index
// lists ascending vertices with one row each; in a delta it lists
// the dirty words, whose vertices the rows cover in order.
type StateRows struct {
	Index    []int32
	Streams  [][4]uint64
	Machines [][]int64
}

// AppendStateRows appends the row section of r to dst. Streams and
// Machines must have equal lengths.
func AppendStateRows(dst []byte, r *StateRows) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(r.Index)))
	for _, x := range r.Index {
		dst = le.AppendUint32(dst, uint32(x))
	}
	dst = le.AppendUint32(dst, uint32(len(r.Machines)))
	for _, s := range r.Streams {
		dst = le.AppendUint64(dst, s[0])
		dst = le.AppendUint64(dst, s[1])
		dst = le.AppendUint64(dst, s[2])
		dst = le.AppendUint64(dst, s[3])
	}
	return appendMachineRows(dst, r.Machines)
}

// DecodeStateRows parses one row section from the front of p and
// returns it with the bytes that follow. Every count is bounded by the
// remaining input before anything is allocated; malformed, truncated or
// non-canonical input is an error, never a panic.
func DecodeStateRows(p []byte) (*StateRows, []byte, error) {
	le := binary.LittleEndian
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("beep: state rows truncated: %d bytes", len(p))
	}
	ni := uint64(le.Uint32(p))
	p = p[4:]
	if ni > uint64(len(p)/4) {
		return nil, nil, fmt.Errorf("beep: state rows index of %d entries exceeds %d bytes", ni, len(p))
	}
	r := &StateRows{Index: make([]int32, ni)}
	for i := range r.Index {
		r.Index[i] = int32(le.Uint32(p[i*4:]))
	}
	p = p[ni*4:]
	if len(p) < 4 {
		return nil, nil, errors.New("beep: state rows truncated before the row count")
	}
	nr := uint64(le.Uint32(p))
	p = p[4:]
	if nr > uint64(len(p)/32) {
		return nil, nil, fmt.Errorf("beep: state rows claim %d rows, %d bytes cannot hold them", nr, len(p))
	}
	r.Streams = make([][4]uint64, nr)
	for i := range r.Streams {
		b := p[i*32:]
		r.Streams[i] = [4]uint64{le.Uint64(b), le.Uint64(b[8:]), le.Uint64(b[16:]), le.Uint64(b[24:])}
	}
	var err error
	r.Machines, p, err = decodeMachineRows(p[nr*32:], int(nr))
	if err != nil {
		return nil, nil, err
	}
	return r, p, nil
}

// appendMachineRows appends machine states as a uvarint length and
// zigzag varint values each: the machine section of a row and of a
// ragged snapshot.
func appendMachineRows(dst []byte, machines [][]int64) []byte {
	for _, m := range machines {
		dst = binary.AppendUvarint(dst, uint64(len(m)))
		for _, v := range m {
			dst = binary.AppendVarint(dst, v)
		}
	}
	return dst
}

// decodeMachineRows parses count machine states from the front of p
// (appendMachineRows's layout), rejecting non-minimal varints.
func decodeMachineRows(p []byte, count int) ([][]int64, []byte, error) {
	machines := make([][]int64, count)
	for i := range machines {
		l, k := binary.Uvarint(p)
		if k <= 0 || k != uvarintLen(l) {
			return nil, nil, fmt.Errorf("beep: machine state %d: bad length", i)
		}
		p = p[k:]
		if l > uint64(len(p)) {
			// Every value costs at least one byte.
			return nil, nil, fmt.Errorf("beep: machine state %d: length %d exceeds remaining %d bytes", i, l, len(p))
		}
		m := make([]int64, l)
		for j := range m {
			x, k := binary.Varint(p)
			if k <= 0 || k != uvarintLen(uint64(x<<1)^uint64(x>>63)) {
				return nil, nil, fmt.Errorf("beep: machine state %d: bad value %d", i, j)
			}
			m[j] = x
			p = p[k:]
		}
		machines[i] = m
	}
	return machines, p, nil
}

// uvarintLen is the minimal uvarint encoding length of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// appendState appends machine m's state to dst. With decodeState it is
// the only way per-vertex state leaves or enters a machine.
func appendState(dst []int64, m Machine) ([]int64, error) {
	c, ok := m.(StateCodec)
	if !ok {
		return dst, fmt.Errorf("beep: machine %T does not support checkpointing", m)
	}
	return c.AppendState(dst), nil
}

// decodeState installs state into machine m.
func decodeState(m Machine, state []int64) error {
	c, ok := m.(StateCodec)
	if !ok {
		return fmt.Errorf("beep: machine %T does not support checkpointing", m)
	}
	return c.DecodeState(state)
}

// capture returns the rows of every vertex of [lo, hi) in a slab word
// that mask marks (a nil mask marks every word), ascending, with one
// Index entry per captured word — or per captured vertex, with
// byVertex. The machine rows share one backing slice. On success it
// rebaselines the dirty tracker's checkpoint reader: the next delta or
// export is relative to this capture.
func (n *Network) capture(mask []uint64, lo, hi int, byVertex bool) (StateRows, error) {
	count := hi - lo
	if mask != nil {
		words := 0
		for _, m := range mask {
			words += bits.OnesCount64(m)
		}
		count = min(count, words*64)
	}
	r := StateRows{Index: []int32{}, Streams: make([][4]uint64, 0, count), Machines: make([][]int64, 0, count)}
	var state []int64
	for wi, whi := lo>>6, (hi+63)>>6; wi < whi; wi++ {
		if mask != nil {
			// Jump to the next marked word.
			m := mask[wi>>6] >> uint(wi&63)
			if m == 0 {
				wi |= 63
				continue
			}
			if wi += bits.TrailingZeros64(m); wi >= whi {
				break
			}
		}
		if !byVertex {
			r.Index = append(r.Index, int32(wi))
		}
		for v := max(wi<<6, lo); v < min(wi<<6+64, hi); v++ {
			start := len(state)
			var err error
			if state, err = appendState(state, n.machines[v]); err != nil {
				return StateRows{}, fmt.Errorf("beep: vertex %d: %w", v, err)
			}
			if start == 0 {
				// Size the backing by the first row. A longer row may move
				// it; earlier rows keep the old array and their values.
				state = slices.Grow(state, (count-1)*len(state))
			}
			if byVertex {
				r.Index = append(r.Index, int32(v))
			}
			r.Machines = append(r.Machines, state[start:len(state):len(state)])
			r.Streams = append(r.Streams, n.srcs[v].State())
		}
	}
	n.dirty.ck.rebaseline(n.N())
	n.dirty.adv = false
	return r, nil
}

// install decodes machines[i] into the machine of vertex index[i], sets
// its stream to streams[i] and marks it active for the round pipeline
// and dirty for both readers of the dirty tracker. The rows are checked
// first and the decodes roll back on the first rejection, so a failed
// install leaves the network untouched.
func (n *Network) install(index []int32, streams [][4]uint64, machines [][]int64) error {
	if len(streams) != len(index) || len(machines) != len(index) {
		return fmt.Errorf("beep: %d row indices for %d stream and %d machine states", len(index), len(streams), len(machines))
	}
	prev := int32(-1)
	for _, v := range index {
		if v <= prev || int(v) >= n.N() {
			return fmt.Errorf("beep: row vertex %d not ascending in [0, %d)", v, n.N())
		}
		prev = v
	}
	saved := make([][]int64, len(machines))
	var buf []int64
	for i, state := range machines {
		m := n.machines[index[i]]
		start := len(buf)
		var err error
		if buf, err = appendState(buf, m); err == nil {
			saved[i] = buf[start:len(buf):len(buf)]
			err = decodeState(m, state)
		}
		if err != nil {
			// Re-decoding a state AppendState just produced cannot fail
			// for a law-abiding codec; the original failure stays primary.
			for j := 0; j <= i; j++ {
				_ = decodeState(n.machines[index[j]], saved[j])
			}
			return fmt.Errorf("beep: vertex %d: %w", index[i], err)
		}
	}
	for i, v := range index {
		n.srcs[v].SetState(streams[i])
		n.sparse.markVertex(int(v))
		n.dirty.markVertex(int(v))
	}
	return nil
}

// InstallRows installs decoded per-vertex rows (Index = ascending
// vertices) into the network at the given completed-round count, and
// marks every installed vertex dirty for both readers of the dirty
// tracker (the incremental checkpoint and the legality probe) and
// active for the round pipeline. It is atomic: a malformed section or
// a row some machine's DecodeState rejects leaves the network
// untouched.
func (n *Network) InstallRows(round int, r *StateRows) error {
	if n.failed != nil {
		return fmt.Errorf("beep: install rows into failed network: %w", n.failed)
	}
	if round < 0 {
		return fmt.Errorf("beep: install rows at negative round %d", round)
	}
	if err := n.install(r.Index, r.Streams, r.Machines); err != nil {
		return err
	}
	n.round = round
	return nil
}
