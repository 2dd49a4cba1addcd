package beep

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

func sampleRows() *StateRows {
	return &StateRows{
		Index:    []int32{3, 4, 70},
		Streams:  [][4]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}, {1 << 63, 0, 9, 10}},
		Machines: [][]int64{{-1, 0, 1 << 40}, {}, {127, -128, 300}},
	}
}

// TestStateRowsRoundTrip pins the row codec: a section decodes to the
// rows it was encoded from, and whatever follows it is returned intact.
func TestStateRowsRoundTrip(t *testing.T) {
	r := sampleRows()
	enc := AppendStateRows([]byte("head"), r)
	got, rest, err := DecodeStateRows(append(enc[4:], 0xAB, 0xCD))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("decoded %+v, want %+v", got, r)
	}
	if !bytes.Equal(rest, []byte{0xAB, 0xCD}) {
		t.Fatalf("rest %x, want abcd", rest)
	}
	empty, rest, err := DecodeStateRows(AppendStateRows(nil, &StateRows{}))
	if err != nil || len(rest) != 0 || len(empty.Index) != 0 || len(empty.Machines) != 0 {
		t.Fatalf("empty section: %+v %x %v", empty, rest, err)
	}
}

// TestStateRowsRejections feeds every truncation of a valid section and
// a padded (non-minimal) varint: each must come back as an error.
func TestStateRowsRejections(t *testing.T) {
	enc := AppendStateRows(nil, sampleRows())
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeStateRows(enc[:cut]); err == nil {
			t.Fatalf("section cut to %d of %d bytes accepted", cut, len(enc))
		}
	}
	// The second row's machine length is the byte right after the
	// first row's values; re-encode 0 as the two-byte 0x80 0x00.
	one := &StateRows{Index: []int32{0}, Streams: [][4]uint64{{}}, Machines: [][]int64{{}}}
	canon := AppendStateRows(nil, one)
	padded := append(append([]byte(nil), canon[:len(canon)-1]...), 0x80, 0x00)
	if _, _, err := DecodeStateRows(padded); err == nil {
		t.Fatal("non-minimal varint accepted")
	}
}

// FuzzStateRows is the untrusted-input contract of the row decoder, the
// first code a distributed worker's state reply reaches: arbitrary
// bytes decode to an error, never a panic, and any accepted section
// re-encodes to exactly the bytes it was decoded from.
func FuzzStateRows(f *testing.F) {
	valid := AppendStateRows(nil, sampleRows())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 1, 2, 3))
	f.Add(AppendStateRows(nil, &StateRows{}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, rest, err := DecodeStateRows(data)
		if err != nil {
			return
		}
		if len(r.Streams) != len(r.Machines) {
			t.Fatalf("decoded %d streams for %d machines", len(r.Streams), len(r.Machines))
		}
		consumed := data[:len(data)-len(rest)]
		if re := AppendStateRows(nil, r); !bytes.Equal(re, consumed) {
			t.Fatalf("accepted section re-encodes to %x, decoded from %x", re, consumed)
		}
	})
}

// TestInstallRowsValidation pins the install contract: structurally bad
// rows are rejected before any write, and a good install moves the
// round and marks the installed words dirty (TestInstallRowsAtomic
// covers a row DecodeState rejects).
func TestInstallRowsValidation(t *testing.T) {
	net, err := NewNetwork(graph.Cycle(130), rwKernelProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	base, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	row := func(idx ...int32) *StateRows {
		r := &StateRows{Index: idx}
		for range idx {
			r.Streams = append(r.Streams, [4]uint64{9, 9, 9, 9})
			r.Machines = append(r.Machines, []int64{7})
		}
		return r
	}
	short := row(1, 2)
	short.Machines = short.Machines[:1]
	for name, r := range map[string]*StateRows{
		"descending":   row(5, 4),
		"duplicate":    row(5, 5),
		"out-of-range": row(1, 130),
		"negative":     row(-1),
		"lengths":      short,
	} {
		if err := net.InstallRows(3, r); err == nil {
			t.Fatalf("%s rows accepted", name)
		}
	}
	if cp, _ := net.Checkpoint(); cp.Hash != base.Hash || net.Round() != 0 {
		t.Fatal("rejected rows mutated the network")
	}
	if err := net.InstallRows(5, row(0, 129)); err != nil {
		t.Fatal(err)
	}
	if net.Round() != 5 || net.DirtyAll() || net.DirtyWords() != 2 {
		t.Fatalf("after install: round %d dirtyAll %v dirty words %d, want 5 false 2",
			net.Round(), net.DirtyAll(), net.DirtyWords())
	}
	if net.Machine(129).(*rwMachine).level != 7 {
		t.Fatal("row not installed")
	}
}

// TestInstallRowsAtomic: a row that the machine's DecodeState rejects
// fails the whole install, and the rows before it are rolled back — the
// network's state, round and dirty tracker stay as they were.
func TestInstallRowsAtomic(t *testing.T) {
	net, err := NewNetwork(graph.Cycle(130), rwKernelProtocol{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.RandomizeAll()
	base, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	rows := &StateRows{
		Index:    []int32{0, 70},
		Streams:  [][4]uint64{{9, 9, 9, 9}, {9, 9, 9, 9}},
		Machines: [][]int64{{7}, {1, 2}},
	}
	if err := net.InstallRows(3, rows); err == nil || !strings.Contains(err.Error(), "vertex 70") {
		t.Fatalf("row rejected by DecodeState: err %v, want one naming vertex 70", err)
	}
	if net.Round() != 0 || net.DirtyAll() || net.DirtyWords() != 0 {
		t.Fatalf("after rejected install: round %d dirtyAll %v dirty words %d, want 0 false 0",
			net.Round(), net.DirtyAll(), net.DirtyWords())
	}
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Hash != base.Hash {
		t.Fatalf("rejected install changed the state: hash %#x, want %#x", cp.Hash, base.Hash)
	}
}
