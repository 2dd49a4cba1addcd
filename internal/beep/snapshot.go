package beep

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
)

// The binary snapshot codec. A binary snapshot holds exactly the same
// logical payload as the v2 JSON encoding — the identity header, the
// per-vertex machine and stream states, the fault-model and allocator
// RNGs, the adversary table, and the payload digest (the Hash field is
// bit-identical between the encodings, so chains and wire messages can
// reference a checkpoint's hash without caring how it was serialized).
// The difference is layout: fixed-width little-endian sections whose
// offsets are computable from the header, so encode and decode
// parallelize over 64-aligned vertex ranges (the same ownership
// discipline the round pipeline uses for its slab stripes) and
// the hot sections are straight memory copies instead of text. The
// magic names the format version (BCS4 for version 4, BCS3 for
// version 2) and nothing else differs between the two.
//
// Readers auto-detect the format: DecodeCheckpointAuto (and
// ReadSnapshot) sniff the 4-byte magic and fall back to the v2 JSON
// decoder, so every consumer keeps reading checkpoints written by
// older builds.

// snapshotMagic opens every binary snapshot of a format version. The
// JSON encoding can never collide with it: a JSON checkpoint starts
// with '{'.
var snapshotMagic = map[int][4]byte{formatV2: {'B', 'C', 'S', '3'}, CheckpointFormatVersion: {'B', 'C', 'S', '4'}}

// magicVersion returns the format version whose magic opens data, or 0.
func magicVersion(magics map[int][4]byte, data []byte) int {
	if len(data) >= 4 {
		for v, m := range magics {
			if [4]byte(data) == m {
				return v
			}
		}
	}
	return 0
}

const (
	// snapFlagAdv marks an adversary table section present.
	snapFlagAdv = 1 << 0
	// snapFlagVals32 marks machine values stored as int32 (every state
	// integer of every vertex fits; the level-slab protocols always
	// do). Otherwise values are int64.
	snapFlagVals32 = 1 << 1
	// snapFlagRagged marks per-vertex varint machine sections: the
	// fallback for protocols whose AppendState length varies by vertex.
	// Ragged bodies encode and decode sequentially.
	snapFlagRagged = 1 << 2
)

// snapHeaderFixed is the byte size of the header before the
// variable-length protocol string: magic + 11 u64 fields + flags +
// stride + protoLen + the four aux RNG states.
const snapHeaderFixed = 4 + 11*8 + 1 + 4 + 4 + 4*32

// snapMaxProto bounds the protocol-identity string a decoder will
// allocate for; real identities are tens of bytes.
const snapMaxProto = 4096

// machineLayout inspects the machine section shape: uniform stride
// (with 0 for an empty network), whether every value fits in int32,
// and whether the ragged fallback is required.
func machineLayout(machines [][]int64) (stride int, vals32, ragged bool) {
	vals32 = true
	if len(machines) == 0 {
		return 0, true, false
	}
	stride = len(machines[0])
	for _, m := range machines {
		if len(m) != stride {
			ragged = true
		}
		for _, v := range m {
			if v < math.MinInt32 || v > math.MaxInt32 {
				vals32 = false
			}
		}
	}
	if ragged {
		stride = 0
	}
	return stride, vals32, ragged
}

// snapshotRanges splits n vertices into 64-aligned chunks for the
// parallel section codecs. The output is deterministic; only the
// wall-clock depends on GOMAXPROCS.
func snapshotRanges(n int) [][2]int {
	workers := runtime.GOMAXPROCS(0)
	if workers < 1 {
		workers = 1
	}
	chunk := (n/workers + 63) &^ 63
	if chunk < 4096 {
		chunk = 4096
	}
	var out [][2]int
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	if out == nil {
		out = [][2]int{{0, 0}}
	}
	return out
}

// EncodeSnapshot serializes a sealed checkpoint in the binary format of
// its FormatVersion: BCS4 for version 4, BCS3 for version 2. It refuses
// a checkpoint whose integrity hash does not match its payload.
func EncodeSnapshot(c *Checkpoint) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("beep: encode snapshot: %w", err)
	}
	n := len(c.Machines)
	stride, vals32, ragged := machineLayout(c.Machines)
	if len(c.Protocol) > snapMaxProto {
		return nil, fmt.Errorf("beep: encode snapshot: protocol identity %d bytes exceeds %d", len(c.Protocol), snapMaxProto)
	}
	var flags byte
	if c.Adversaries != nil {
		flags |= snapFlagAdv
	}
	if vals32 {
		flags |= snapFlagVals32
	}
	if ragged {
		flags |= snapFlagRagged
	}
	valSize := 8
	if vals32 {
		valSize = 4
	}

	headerLen := snapHeaderFixed + len(c.Protocol)
	size := headerLen + n*32
	if !ragged {
		size += n * stride * valSize
	}
	if c.Adversaries != nil {
		size += n
	}

	var buf []byte
	if ragged {
		buf = make([]byte, headerLen, size+n*binary.MaxVarintLen64)
	} else {
		buf = make([]byte, size)
	}

	le := binary.LittleEndian
	magic := snapshotMagic[c.FormatVersion]
	copy(buf[0:4], magic[:])
	le.PutUint64(buf[4:], c.GraphFingerprint)
	le.PutUint64(buf[12:], uint64(c.GraphN))
	le.PutUint64(buf[20:], uint64(c.GraphM))
	le.PutUint64(buf[28:], c.Seed)
	le.PutUint64(buf[36:], math.Float64bits(c.NoiseLoss))
	le.PutUint64(buf[44:], math.Float64bits(c.NoiseFalse))
	le.PutUint64(buf[52:], math.Float64bits(c.SleepP))
	le.PutUint64(buf[60:], uint64(c.Round))
	le.PutUint64(buf[68:], c.NextStream)
	le.PutUint64(buf[76:], c.AdvEpoch)
	le.PutUint64(buf[84:], c.Hash)
	buf[92] = flags
	le.PutUint32(buf[93:], uint32(stride))
	le.PutUint32(buf[97:], uint32(len(c.Protocol)))
	off := 101
	for i, rng := range [][4]uint64{c.NoiseRNG, c.SleepRNG, c.AdvRNG, c.RootRNG} {
		base := off + i*32
		for k, w := range rng {
			le.PutUint64(buf[base+k*8:], w)
		}
	}
	off += 4 * 32
	copy(buf[off:], c.Protocol)
	off += len(c.Protocol)

	if ragged {
		// Ragged fallback: streams fixed-width, machines as
		// uvarint-length + zigzag-varint values, sequential.
		streamOff := off
		buf = buf[:streamOff+n*32]
		encodeStreamsRange(buf[streamOff:], c.Streams, 0, n)
		buf = appendMachineRows(buf, c.Machines)
		if c.Adversaries != nil {
			buf = append(buf, c.Adversaries...)
		}
		return buf, nil
	}

	streamOff := off
	machineOff := streamOff + n*32
	ranges := snapshotRanges(n)
	var wg sync.WaitGroup
	for _, r := range ranges {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			encodeStreamsRange(buf[streamOff:], c.Streams, lo, hi)
			encodeMachinesRange(buf[machineOff:], c.Machines, stride, vals32, lo, hi)
		}(r[0], r[1])
	}
	wg.Wait()
	if c.Adversaries != nil {
		copy(buf[machineOff+n*stride*valSize:], c.Adversaries)
	}
	return buf, nil
}

func encodeStreamsRange(dst []byte, streams [][4]uint64, lo, hi int) {
	le := binary.LittleEndian
	for v := lo; v < hi; v++ {
		base := v * 32
		s := &streams[v]
		le.PutUint64(dst[base:], s[0])
		le.PutUint64(dst[base+8:], s[1])
		le.PutUint64(dst[base+16:], s[2])
		le.PutUint64(dst[base+24:], s[3])
	}
}

func encodeMachinesRange(dst []byte, machines [][]int64, stride int, vals32 bool, lo, hi int) {
	le := binary.LittleEndian
	if vals32 {
		for v := lo; v < hi; v++ {
			base := v * stride * 4
			for i, x := range machines[v] {
				le.PutUint32(dst[base+i*4:], uint32(int32(x)))
			}
		}
		return
	}
	for v := lo; v < hi; v++ {
		base := v * stride * 8
		for i, x := range machines[v] {
			le.PutUint64(dst[base+i*8:], uint64(x))
		}
	}
}

// DecodeSnapshot parses a binary snapshot of either version; the magic
// sets the checkpoint's FormatVersion. Malformed, truncated or
// corrupted input — including any header claiming more data than the
// buffer holds — surfaces as an error, never a panic, and every
// payload is re-verified against its version's digest before being
// returned.
func DecodeSnapshot(data []byte) (*Checkpoint, error) {
	if len(data) < snapHeaderFixed {
		return nil, fmt.Errorf("beep: snapshot truncated: %d bytes, header needs %d", len(data), snapHeaderFixed)
	}
	version := magicVersion(snapshotMagic, data)
	if version == 0 {
		return nil, fmt.Errorf("beep: not a binary snapshot (magic %q)", data[0:4])
	}
	le := binary.LittleEndian
	c := &Checkpoint{FormatVersion: version}
	c.GraphFingerprint = le.Uint64(data[4:])
	graphN := le.Uint64(data[12:])
	graphM := le.Uint64(data[20:])
	c.Seed = le.Uint64(data[28:])
	c.NoiseLoss = math.Float64frombits(le.Uint64(data[36:]))
	c.NoiseFalse = math.Float64frombits(le.Uint64(data[44:]))
	c.SleepP = math.Float64frombits(le.Uint64(data[52:]))
	round := le.Uint64(data[60:])
	c.NextStream = le.Uint64(data[68:])
	c.AdvEpoch = le.Uint64(data[76:])
	c.Hash = le.Uint64(data[84:])
	flags := data[92]
	stride := int(le.Uint32(data[93:]))
	protoLen := int(le.Uint32(data[97:]))
	off := 101
	rngs := [4]*[4]uint64{&c.NoiseRNG, &c.SleepRNG, &c.AdvRNG, &c.RootRNG}
	for i, rng := range rngs {
		base := off + i*32
		for k := range rng {
			rng[k] = le.Uint64(data[base+k*8:])
		}
		_ = i
	}
	off += 4 * 32
	if flags&^(snapFlagAdv|snapFlagVals32|snapFlagRagged) != 0 {
		return nil, fmt.Errorf("beep: snapshot flags %#x carry unknown bits", flags)
	}
	if protoLen < 0 || protoLen > snapMaxProto || off+protoLen > len(data) {
		return nil, fmt.Errorf("beep: snapshot protocol length %d out of range", protoLen)
	}
	c.Protocol = string(data[off : off+protoLen])
	off += protoLen
	if round > math.MaxInt64/2 || graphN > math.MaxInt64/2 || graphM > math.MaxInt64/2 {
		return nil, fmt.Errorf("beep: snapshot header out of range (n=%d m=%d round=%d)", graphN, graphM, round)
	}
	c.Round = int(round)
	c.GraphN = int(graphN)
	c.GraphM = int(graphM)

	// Section sizes are bounded by the buffer before anything is
	// allocated: n costs 32 bytes of stream state per vertex no matter
	// what the header claims.
	rest := data[off:]
	n := c.GraphN
	if n < 0 || n > len(rest)/32 {
		return nil, fmt.Errorf("beep: snapshot claims %d vertices, %d payload bytes cannot hold them", n, len(rest))
	}
	ragged := flags&snapFlagRagged != 0
	vals32 := flags&snapFlagVals32 != 0
	hasAdv := flags&snapFlagAdv != 0
	valSize := 8
	if vals32 {
		valSize = 4
	}

	c.Streams = make([][4]uint64, n)
	decodeStreamsRange(rest, c.Streams, 0, n)
	rest = rest[n*32:]

	if ragged {
		var err error
		if c.Machines, rest, err = decodeMachineRows(rest, n); err != nil {
			return nil, fmt.Errorf("beep: snapshot: %w", err)
		}
	} else {
		if stride < 0 || stride > snapMaxProto {
			return nil, fmt.Errorf("beep: snapshot machine stride %d out of range", stride)
		}
		need := n * stride * valSize
		if stride != 0 && need/(stride*valSize) != n {
			return nil, fmt.Errorf("beep: snapshot machine section overflows (n=%d stride=%d)", n, stride)
		}
		if need > len(rest) {
			return nil, fmt.Errorf("beep: snapshot machine section truncated: need %d bytes, have %d", need, len(rest))
		}
		c.Machines = make([][]int64, n)
		backing := make([]int64, n*stride)
		for v := 0; v < n; v++ {
			c.Machines[v] = backing[v*stride : (v+1)*stride : (v+1)*stride]
		}
		ranges := snapshotRanges(n)
		var wg sync.WaitGroup
		for _, r := range ranges {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				decodeMachinesRange(rest, c.Machines, stride, vals32, lo, hi)
			}(r[0], r[1])
		}
		wg.Wait()
		rest = rest[need:]
	}

	// Only the encoder's layout is canonical: it derives stride, value
	// width and raggedness from the rows (a ragged section has stride 0).
	if st, v32, rg := machineLayout(c.Machines); st != stride || v32 != vals32 || rg != ragged {
		return nil, fmt.Errorf("beep: snapshot layout (stride %d, int32 %v, ragged %v) is not the encoder's (%d, %v, %v)",
			stride, vals32, ragged, st, v32, rg)
	}
	if hasAdv {
		if n > len(rest) {
			return nil, fmt.Errorf("beep: snapshot adversary table truncated: need %d bytes, have %d", n, len(rest))
		}
		c.Adversaries = append([]uint8(nil), rest[:n]...)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("beep: snapshot has %d trailing bytes", len(rest))
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("beep: read snapshot: %w", err)
	}
	return c, nil
}

func decodeStreamsRange(src []byte, streams [][4]uint64, lo, hi int) {
	le := binary.LittleEndian
	for v := lo; v < hi; v++ {
		base := v * 32
		streams[v] = [4]uint64{
			le.Uint64(src[base:]),
			le.Uint64(src[base+8:]),
			le.Uint64(src[base+16:]),
			le.Uint64(src[base+24:]),
		}
	}
}

func decodeMachinesRange(src []byte, machines [][]int64, stride int, vals32 bool, lo, hi int) {
	le := binary.LittleEndian
	if vals32 {
		for v := lo; v < hi; v++ {
			base := v * stride * 4
			m := machines[v]
			for i := range m {
				m[i] = int64(int32(le.Uint32(src[base+i*4:])))
			}
		}
		return
	}
	for v := lo; v < hi; v++ {
		base := v * stride * 8
		m := machines[v]
		for i := range m {
			m[i] = int64(le.Uint64(src[base+i*8:]))
		}
	}
}

// DecodeCheckpointAuto parses a checkpoint in any supported encoding,
// sniffing the leading bytes: a binary magic (BCS4 or BCS3) selects
// DecodeSnapshot, anything else falls back to the v2 JSON decoder.
func DecodeCheckpointAuto(data []byte) (*Checkpoint, error) {
	if magicVersion(snapshotMagic, data) != 0 {
		return DecodeSnapshot(data)
	}
	return decodeCheckpointJSON(data)
}

// WriteSnapshot serializes a checkpoint in the binary format of its
// FormatVersion (see EncodeSnapshot).
func WriteSnapshot(w io.Writer, c *Checkpoint) error {
	buf, err := EncodeSnapshot(c)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("beep: write snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot reads a checkpoint in any supported encoding (BCS4, BCS3
// or v2 JSON, auto-detected) from r.
func ReadSnapshot(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("beep: read snapshot: %w", err)
	}
	return DecodeCheckpointAuto(data)
}
