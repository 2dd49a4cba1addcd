// Package dist implements the distributed multi-process engine: a
// coordinator that partitions a simulation across workers connected
// over TCP (stdlib net only), exchanging per round only the sender
// bitset words each partition's neighbors need. The wire layer is built
// robustness-first: length-prefixed CRC-checksummed frames with resync,
// deterministic fault injection (FaultConn), per-RPC timeouts with
// capped exponential backoff and bounded retransmission, heartbeats,
// and crash-exact recovery from the coordinator's shadow network, into
// which workers ship their dirty state rows.
package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"
)

// Frame layout (little-endian):
//
//	magic   4 bytes  "BPW1"
//	type    1 byte
//	seq     4 bytes
//	len     4 bytes  payload length
//	payload len bytes
//	crc     4 bytes  CRC-32C over type..payload
//
// The CRC covers everything after the magic; a reader that fails the
// CRC (or sees a bogus length) resynchronizes by scanning forward for
// the next magic, so a corrupted frame can cost the frames its bogus
// length swallowed but never desynchronizes the stream permanently —
// the RPC layer retransmits whatever was lost.

const (
	frameMagic  = "BPW1"
	headerLen   = 4 + 1 + 4 + 4
	crcLen      = 4
	maxFrameLen = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type frameType uint8

const (
	fJoin frameType = iota + 1
	fConfig
	fConfigOK
	fRestore
	fRestoreOK
	fEmit
	fEmitOK
	fDeliver
	fDeliverOK
	fPing
	fPong
	fShutdown
	fBye
	fErr
	fStateDelta
	fStateDeltaOK
	frameTypeEnd
)

// frame is one wire message.
type frame struct {
	Type    frameType
	Seq     uint32
	Payload []byte
}

// appendFrame encodes f onto dst.
func appendFrame(dst []byte, f frame) []byte {
	start := len(dst)
	dst = append(dst, frameMagic...)
	dst = append(dst, byte(f.Type))
	dst = binary.LittleEndian.AppendUint32(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Payload...)
	crc := crc32.Checksum(dst[start+4:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// readFrame reads the next valid frame from br. Invalid bytes (no
// magic, bogus type or length, CRC mismatch) are skipped; the scan only
// stops on a valid frame or an I/O error. It never panics on arbitrary
// input (FuzzFrame pins this).
func readFrame(br *bufio.Reader) (frame, error) {
	for {
		hdr, err := br.Peek(headerLen)
		if err != nil {
			return frame{}, err
		}
		if string(hdr[:4]) != frameMagic {
			br.Discard(1)
			continue
		}
		typ := frameType(hdr[4])
		seq := binary.LittleEndian.Uint32(hdr[5:9])
		plen := binary.LittleEndian.Uint32(hdr[9:13])
		if typ == 0 || typ >= frameTypeEnd || plen > maxFrameLen {
			br.Discard(1)
			continue
		}
		// The header CRC must be folded in before any further read: hdr
		// aliases the bufio buffer, and refills slide or overwrite it.
		sum := crc32.Checksum(hdr[4:headerLen], crcTable)
		// Commit: consume the header and read payload+crc. A CRC failure
		// here has consumed the bytes (they may have swallowed a following
		// frame), which the retransmission layer absorbs.
		if _, err := br.Discard(headerLen); err != nil {
			return frame{}, err
		}
		body := make([]byte, int(plen)+crcLen)
		if _, err := io.ReadFull(br, body); err != nil {
			return frame{}, err
		}
		sum = crc32.Update(sum, crcTable, body[:plen])
		if sum != binary.LittleEndian.Uint32(body[plen:]) {
			continue // corrupted: rescan
		}
		return frame{Type: typ, Seq: seq, Payload: body[:plen]}, nil
	}
}

// transport is the frame-level connection interface; faultConn wraps a
// frameConn to inject deterministic faults.
type transport interface {
	send(f frame) error
	recv(deadline time.Time) (frame, error)
	close() error
}

// frameConn is a frame transport over a net.Conn.
type frameConn struct {
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
}

func newFrameConn(c net.Conn) *frameConn {
	return &frameConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// writeTimeout bounds a single frame write; a peer that cannot accept a
// frame for this long is as good as dead.
const writeTimeout = 30 * time.Second

func (fc *frameConn) send(f frame) error {
	fc.wbuf = appendFrame(fc.wbuf[:0], f)
	return fc.sendRaw(fc.wbuf)
}

// sendRaw writes pre-encoded frame bytes (the fault injector's
// corruption path encodes and mutates its own copy).
func (fc *frameConn) sendRaw(b []byte) error {
	fc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := fc.c.Write(b)
	return err
}

// recv reads the next valid frame, blocking until deadline (zero =
// block forever).
func (fc *frameConn) recv(deadline time.Time) (frame, error) {
	fc.c.SetReadDeadline(deadline)
	return readFrame(fc.br)
}

func (fc *frameConn) close() error { return fc.c.Close() }

// isTimeout reports whether err is a read-deadline expiry (retryable)
// rather than a dead connection.
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// errFrame builds an fErr frame carrying a diagnostic string.
func errFrame(seq uint32, format string, args ...any) frame {
	return frame{Type: fErr, Seq: seq, Payload: []byte(fmt.Sprintf(format, args...))}
}
