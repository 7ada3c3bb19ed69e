package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Frame is the transport envelope: one tagged message between nodes.
// It mirrors transport.Message field-for-field; the transport converts
// at its boundary so the codec stays dependency-free.
type Frame struct {
	From, To int
	Tag      uint64
	// TID is the logical-thread id the frame belongs to: replies,
	// asynchronous batches and deferred errors correlate per thread,
	// not per node. Zero is the system thread (migration, adaptation,
	// shutdown and other runtime-internal traffic).
	TID  uint64
	Kind uint8
	// Seq and Ack are the reliability layer's per-(peer, direction)
	// sequence number and cumulative acknowledgement; Dedup is the
	// runtime's per-(thread, invocation) idempotency id for re-driven
	// requests. All three are zero outside fault-tolerant runs.
	Seq   uint64
	Ack   uint64
	Dedup uint64
	// View is the membership view id the sender held when it emitted
	// the frame: coordination traffic (MIGRATE, TRANSFER, PROMOTE and
	// the membership frames) is stamped with it so two
	// nodes that disagree on the cluster's composition detect the skew
	// instead of acting on it. Zero means "no membership in play".
	View    uint64
	Time    float64
	Payload []byte
}

// Envelope presence flags. A frame body opens with one flags byte; each
// optional field owns one bit and is on the wire only when its bit is
// set, which the encoder does exactly when the field is nonzero. The
// body layout is
//
//	flags | From | To | Tag | [TID] [Seq] [Ack] [Dedup] [View] | Kind | [Time] | len | payload
//
// with uvarint integers and Time as 8 big-endian bytes. Every node runs
// the same program image (JOIN refuses a digest mismatch), so there is
// one layout and no version negotiation: a bit outside flagsDefined is
// a clean decode error.
const (
	flagTID uint8 = 1 << iota
	flagSeq
	flagAck
	flagDedup
	flagView
	flagTime

	flagsDefined = flagTime<<1 - 1
)

// Transport-level control kinds. They live at the top of the kind
// space, far from the runtime's message kinds, and never reach the
// runtime's handlers: HEARTBEAT and NACK frames are absorbed by the
// reliability layer (they exist to carry liveness, acknowledgements and
// loss reports), and PEERDOWN is synthesised locally by the failure
// detector — it is the one control kind a runtime serve loop does
// observe.
const (
	// KindHeartbeat is a reliability-layer liveness probe carrying the
	// sender's cumulative acknowledgement. Never sequenced, never
	// retransmitted, never delivered to the application.
	KindHeartbeat uint8 = 0xF0
	// KindPeerDown is the failure detector's verdict, synthesised into
	// the local receive stream (never sent on the wire): Message.From
	// names the peer declared dead.
	KindPeerDown uint8 = 0xF1
	// KindJoin is the membership handshake's opening frame: a fresh
	// node presents its program digest, address and speed to the rank-0
	// coordinator and asks to be admitted. Unlike the two kinds above
	// it does cross the wire and is handled by the runtime serve loop.
	KindJoin uint8 = 0xF2
	// KindWelcome carries the coordinator's ownership delta (Welcome):
	// as a reply to JOIN it grants the joiner its rank and the new view;
	// as a broadcast it moves every member to the state a join, drain or
	// recovery round produced — view, dead rank, new homes.
	KindWelcome uint8 = 0xF3
	// KindLeave asks a member to drain: migrate every object it owns to
	// the surviving ranks and report the new homes, after which the
	// coordinator retires it from the view.
	KindLeave uint8 = 0xF4
	// KindNack is the reliability layer's loss report: the receiver
	// holds a frame past a sequence gap, and Ack — the cumulative
	// acknowledgement, as on a heartbeat — names the gap as Ack+1, which
	// the sender resends at once. Never sequenced, never retransmitted,
	// never delivered to the application. Like a heartbeat it carries no
	// payload.
	KindNack uint8 = 0xF5
)

// MaxFrameBody bounds a decoded frame body so a corrupted length prefix
// fails fast instead of attempting a huge allocation.
const MaxFrameBody = 1 << 30

// uvarintLen is the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// AppendFrame encodes the frame (length-prefixed, flagged body) onto b.
// It is allocation-free apart from growing b: the body length is
// computed up front and the fields encode directly into the
// destination, so a caller appending into a pooled or pre-grown buffer
// pays nothing per frame. Zero optional fields cost nothing on the
// wire.
func AppendFrame(b []byte, f *Frame) []byte {
	flags := uint8(0)
	n := 1 + // flags byte
		uvarintLen(uint64(f.From)) +
		uvarintLen(uint64(f.To)) +
		uvarintLen(f.Tag) +
		1 + // kind byte
		uvarintLen(uint64(len(f.Payload))) +
		len(f.Payload)
	n += optLen(f.TID, flagTID, &flags)
	n += optLen(f.Seq, flagSeq, &flags)
	n += optLen(f.Ack, flagAck, &flags)
	n += optLen(f.Dedup, flagDedup, &flags)
	n += optLen(f.View, flagView, &flags)
	tbits := math.Float64bits(f.Time)
	if tbits != 0 {
		flags |= flagTime
		n += 8
	}
	b = appendUvarint(b, uint64(n))
	b = append(b, flags)
	b = appendUvarint(b, uint64(f.From))
	b = appendUvarint(b, uint64(f.To))
	b = appendUvarint(b, f.Tag)
	b = appendOpt(b, f.TID)
	b = appendOpt(b, f.Seq)
	b = appendOpt(b, f.Ack)
	b = appendOpt(b, f.Dedup)
	b = appendOpt(b, f.View)
	b = append(b, f.Kind)
	if tbits != 0 {
		b = binary.BigEndian.AppendUint64(b, tbits)
	}
	b = appendUvarint(b, uint64(len(f.Payload)))
	return append(b, f.Payload...)
}

// optLen is the encoded size of an optional envelope field, setting
// its flag bit when the field is present (nonzero).
func optLen(v uint64, bit uint8, flags *uint8) int {
	if v == 0 {
		return 0
	}
	*flags |= bit
	return uvarintLen(v)
}

// appendOpt encodes an optional envelope field if it is present.
func appendOpt(b []byte, v uint64) []byte {
	if v == 0 {
		return b
	}
	return appendUvarint(b, v)
}

// ByteScanner is the reader a frame decoder needs (bufio.Reader
// satisfies it).
type ByteScanner interface {
	io.Reader
	io.ByteReader
}

// ReadFrameScratch reads one frame using (and returning) a reusable
// scratch buffer for the body, so a steady-state read loop allocates
// only when a frame outgrows every predecessor. The returned frame's
// Payload aliases the scratch buffer: it is valid until the next
// ReadFrameScratch call with the same scratch, and callers that keep
// the payload must copy it out (the TCP transport copies into a pooled
// buffer). io.EOF is returned unchanged on a clean end-of-stream
// before the length prefix.
func ReadFrameScratch(r ByteScanner, scratch []byte) (Frame, []byte, error) {
	var f Frame
	n, err := readUvarint(r)
	if err != nil {
		return f, scratch, err
	}
	if n > MaxFrameBody {
		return f, scratch, fmt.Errorf("wire: frame body %d exceeds limit", n)
	}
	if uint64(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	body := scratch[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return f, scratch, err
	}
	f, err = decodeFrameBody(body)
	return f, scratch, err
}

// DecodeFrameBuf decodes one length-prefixed frame from the front of
// buf, returning the remainder. The frame's Payload aliases buf. It is
// the in-memory counterpart of ReadFrameScratch, used to walk coalesced
// multi-frame buffers (a write batch, a captured stream).
// io.EOF is returned on an empty buffer.
func DecodeFrameBuf(buf []byte) (Frame, []byte, error) {
	var f Frame
	if len(buf) == 0 {
		return f, buf, io.EOF
	}
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return f, buf, fmt.Errorf("wire: bad frame length prefix")
	}
	if n > MaxFrameBody {
		return f, buf, fmt.Errorf("wire: frame body %d exceeds limit", n)
	}
	rest := buf[w:]
	if uint64(len(rest)) < n {
		return f, buf, fmt.Errorf("wire: truncated frame body (%d of %d bytes)", len(rest), n)
	}
	f, err := decodeFrameBody(rest[:n])
	return f, rest[n:], err
}

// decodeFrameBody parses a flagged frame body. The payload aliases
// body.
func decodeFrameBody(body []byte) (Frame, error) {
	var f Frame
	rd := NewReader(body)
	flags := rd.Byte()
	if flags&^flagsDefined != 0 {
		return f, fmt.Errorf("wire: undefined frame flags %#x", flags&^flagsDefined)
	}
	f.From = int(rd.Uvarint())
	f.To = int(rd.Uvarint())
	f.Tag = rd.Uvarint()
	f.TID = readOpt(rd, flags, flagTID)
	f.Seq = readOpt(rd, flags, flagSeq)
	f.Ack = readOpt(rd, flags, flagAck)
	f.Dedup = readOpt(rd, flags, flagDedup)
	f.View = readOpt(rd, flags, flagView)
	f.Kind = rd.Byte()
	if flags&flagTime != 0 {
		f.Time = rd.Float()
	}
	pn := rd.Uvarint()
	if rd.Err() != nil {
		return f, rd.Err()
	}
	if pn > 0 {
		if uint64(len(rd.Rest())) < pn {
			return f, fmt.Errorf("wire: truncated frame payload")
		}
		f.Payload = rd.Rest()[:pn]
	}
	return f, nil
}

// readOpt decodes an optional envelope field if its flag bit is set.
func readOpt(rd *Reader, flags, bit uint8) uint64 {
	if flags&bit == 0 {
		return 0
	}
	return rd.Uvarint()
}

// readUvarint reads a varint from a stream one byte at a time, keeping
// io.EOF distinguishable (a clean close between frames).
func readUvarint(r io.ByteReader) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				return 0, io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if i == 9 && b > 1 {
			return 0, fmt.Errorf("wire: uvarint overflow")
		}
		if b < 0x80 {
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}
