package dist

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// TestFrameRoundTrip pins the frame encoding: every type survives the
// encode/decode round trip, including empty and large payloads.
func TestFrameRoundTrip(t *testing.T) {
	var wire []byte
	var want []frame
	for typ := fJoin; typ < frameTypeEnd; typ++ {
		f := frame{Type: typ, Seq: 1000 + uint32(typ), Payload: bytes.Repeat([]byte{byte(typ)}, int(typ)*7)}
		wire = appendFrame(wire, f)
		want = append(want, f)
	}
	want = append(want, frame{Type: fEmitOK, Seq: 7, Payload: make([]byte, 200_000)})
	wire = appendFrame(wire, want[len(want)-1])

	br := bufio.NewReader(bytes.NewReader(wire))
	for i, w := range want {
		got, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != w.Type || got.Seq != w.Seq || !bytes.Equal(got.Payload, w.Payload) {
			t.Fatalf("frame %d: got {%v %d %d bytes}, want {%v %d %d bytes}",
				i, got.Type, got.Seq, len(got.Payload), w.Type, w.Seq, len(w.Payload))
		}
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("after last frame: %v, want EOF", err)
	}
}

// TestFrameResync pins the recovery property of the stream reader:
// garbage before a frame, a corrupted frame between two good ones, and
// a truncated tail are all survived — every intact frame that the
// corruption did not swallow is still delivered.
func TestFrameResync(t *testing.T) {
	a := frame{Type: fPing, Seq: 1, Payload: []byte("a")}
	b := frame{Type: fPong, Seq: 2, Payload: []byte("bb")}
	c := frame{Type: fStateDelta, Seq: 3, Payload: []byte("ccc")}

	t.Run("leading garbage", func(t *testing.T) {
		wire := append([]byte("noise BPW garbage \x00\xff"), appendFrame(nil, a)...)
		got, err := readFrame(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil || got.Seq != 1 {
			t.Fatalf("got %+v, %v", got, err)
		}
	})

	t.Run("corrupt middle frame", func(t *testing.T) {
		wire := appendFrame(nil, a)
		mid := appendFrame(nil, b)
		// Flip a payload bit: the CRC rejects the frame, the reader
		// rescans, and the following frame still arrives. The corrupted
		// frame's length field is intact, so nothing else is swallowed.
		mid[headerLen] ^= 0x40
		wire = append(wire, mid...)
		wire = appendFrame(wire, c)
		br := bufio.NewReader(bytes.NewReader(wire))
		got1, err := readFrame(br)
		if err != nil || got1.Seq != 1 {
			t.Fatalf("first: %+v, %v", got1, err)
		}
		got2, err := readFrame(br)
		if err != nil || got2.Seq != 3 {
			t.Fatalf("after corruption: %+v, %v (want seq 3)", got2, err)
		}
	})

	t.Run("truncated tail", func(t *testing.T) {
		wire := appendFrame(nil, a)
		wire = append(wire, appendFrame(nil, b)[:headerLen+1]...)
		br := bufio.NewReader(bytes.NewReader(wire))
		if got, err := readFrame(br); err != nil || got.Seq != 1 {
			t.Fatalf("first: %+v, %v", got, err)
		}
		if _, err := readFrame(br); err == nil {
			t.Fatal("truncated frame decoded")
		}
	})

	t.Run("bogus length", func(t *testing.T) {
		// A header claiming a payload beyond maxFrameLen must not
		// allocate or block; the scan skips it and finds the real frame.
		wire := appendFrame(nil, frame{Type: fPing, Seq: 9})
		wire[9] = 0xff
		wire[10] = 0xff
		wire[11] = 0xff
		wire[12] = 0x7f
		wire = appendFrame(wire, c)
		got, err := readFrame(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil || got.Seq != 3 {
			t.Fatalf("got %+v, %v", got, err)
		}
	})
}

// FuzzFrame pins the never-panic contract of the stream reader on
// arbitrary bytes: any input yields frames and then an I/O error,
// never a panic, and every decoded frame is well-formed.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(frameMagic))
	f.Add(appendFrame(nil, frame{Type: fEmit, Seq: 42, Payload: []byte("payload")}))
	long := appendFrame(nil, frame{Type: fDeliver, Seq: 1, Payload: make([]byte, 3000)})
	f.Add(long[:len(long)-5])
	f.Add(append([]byte("BPW1\xff\xff\xff\xff\xff\xff\xff\xff\xff"), frameMagic...))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			fr, err := readFrame(br)
			if err != nil {
				return // EOF or ErrUnexpectedEOF: done
			}
			if fr.Type == 0 || fr.Type >= frameTypeEnd {
				t.Fatalf("decoded frame with invalid type %d", fr.Type)
			}
			if len(fr.Payload) > maxFrameLen {
				t.Fatalf("decoded frame with oversized payload %d", len(fr.Payload))
			}
		}
	})
}
