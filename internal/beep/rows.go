package beep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// State rows: the binary unit of checkpointable per-vertex state. A
// row is one vertex's random-stream state plus its machine state
// (StateCodec.EncodeState). Rows travel in one layout everywhere:
//
//	nidx     u32
//	index    nidx × u32    vertex indices (Partition exports) or slab
//	                       word indices (BCD3 delta frames)
//	count    u32
//	streams  count × 32 bytes
//	machines count × (uvarint length, that many zigzag varints)
//
// BCD3 delta frames carry their dirty words and vertex states in this
// section; a distributed worker ships its dirty rows in it, and the
// coordinator installs them into a network with InstallRows. The
// decoder accepts only the encoder's canonical bytes (minimal varints),
// so a decoded section re-encodes to exactly the bytes it came from.

// StateRows is one decoded row section. For a Partition export, Index
// lists ascending vertices with one row each; in a BCD3 delta it lists
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

// InstallRows installs decoded per-vertex rows (Index = ascending
// vertices) into the network at the given completed-round count, and
// marks every installed vertex dirty for the incremental checkpoint and
// active for the round pipeline. The whole section is validated before
// the first write; a machine whose DecodeState rejects its row fails
// the call with the rows before it already installed.
func (n *Network) InstallRows(round int, r *StateRows) error {
	if n.failed != nil {
		return fmt.Errorf("beep: install rows into failed network: %w", n.failed)
	}
	if round < 0 {
		return fmt.Errorf("beep: install rows at negative round %d", round)
	}
	if len(r.Streams) != len(r.Index) || len(r.Machines) != len(r.Index) {
		return fmt.Errorf("beep: %d row indices for %d stream and %d machine states", len(r.Index), len(r.Streams), len(r.Machines))
	}
	prev := int32(-1)
	for _, v := range r.Index {
		if v <= prev || int(v) >= n.N() {
			return fmt.Errorf("beep: row vertex %d not ascending in [0, %d)", v, n.N())
		}
		if _, ok := n.machines[v].(StateCodec); !ok {
			return fmt.Errorf("beep: machine %T of vertex %d does not support checkpointing", n.machines[v], v)
		}
		prev = v
	}
	for i, v := range r.Index {
		if err := n.machines[v].(StateCodec).DecodeState(r.Machines[i]); err != nil {
			return fmt.Errorf("beep: row vertex %d: %w", v, err)
		}
		n.srcs[v].SetState(r.Streams[i])
		n.sparse.markVertex(int(v))
		n.ckDirty.markVertex(int(v))
	}
	n.round = round
	return nil
}
