package wire

import (
	"encoding/binary"
	"fmt"
	"io"
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
	// requests. All three are zero outside fault-tolerant runs, and a
	// frame with all three zero encodes in the version-2 layout — the
	// wire stream of a non-fault-tolerant cluster is byte-identical to
	// the pre-v3 protocol.
	Seq   uint64
	Ack   uint64
	Dedup uint64
	// View is the membership view id the sender held when it emitted
	// the frame: coordination traffic (ADAPT, MIGRATE, RECOVER rounds
	// and the membership handshake itself) is stamped with it so two
	// nodes that disagree on the cluster's composition detect the skew
	// instead of acting on it. Zero means "no membership in play" and
	// encodes in the version-3 (or smaller) layout — a non-elastic
	// cluster's wire stream is byte-identical to the pre-v4 protocol.
	View    uint64
	Time    float64
	Payload []byte
}

// Frame body versions. Version 1 is the pre-thread-id layout (no TID
// field; decodes with TID 0); version 2 added the logical-thread id;
// version 3 appends the reliability fields (Seq, Ack, Dedup) after the
// thread id; version 4 appends the membership view id after the
// reliability fields. The decoder selects the layout by the version
// byte alone — a frame can only carry a thread id, sequence numbers or
// a view id if its version says so, and an unknown version is a clean
// error, never a panic or a misparse. The encoder picks the smallest
// sufficient version: frames with zero Seq/Ack/Dedup emit version 2
// unchanged, and only frames carrying a nonzero view id pay for the
// version-4 field.
const (
	FrameVersion1 = 1
	FrameVersion  = 2
	FrameVersion3 = 3
	FrameVersion4 = 4
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
	// KindWelcome carries the coordinator's admission verdict. As a
	// reply to JOIN it grants the joiner its rank, the new view and the
	// coherence epoch; as a broadcast it installs the new view on every
	// existing member (and, on a leave, the rehomed ownership).
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
	// payload and picks the smallest sufficient envelope: version 3, or
	// version 2 while nothing has been received yet (Ack 0: the hole is
	// the link's first frame).
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

// frameBodyLen is the exact encoded body size of f in the current
// frame version, so AppendFrame can emit the length prefix first and
// encode the body in place — no intermediate buffer, no allocation
// beyond growing b itself.
func frameBodyLen(f *Frame) int {
	n := 1 + // version byte
		uvarintLen(uint64(f.From)) +
		uvarintLen(uint64(f.To)) +
		uvarintLen(f.Tag) +
		uvarintLen(f.TID) +
		1 + // kind byte
		8 + // time
		uvarintLen(uint64(len(f.Payload))) +
		len(f.Payload)
	if f.Seq != 0 || f.Ack != 0 || f.Dedup != 0 || f.View != 0 {
		n += uvarintLen(f.Seq) + uvarintLen(f.Ack) + uvarintLen(f.Dedup)
	}
	if f.View != 0 {
		n += uvarintLen(f.View)
	}
	return n
}

// AppendFrame encodes the frame (length-prefixed, versioned body) onto
// b. It is allocation-free apart from growing b: the body length is
// computed up front and the fields encode directly into the
// destination, so a caller appending into a pooled or pre-grown buffer
// pays nothing per frame. Frames without reliability state (Seq, Ack
// and Dedup all zero) emit the version-2 layout, byte-identical to the
// historical encoder's; only the reliability layer's frames pay for the
// version-3 fields, and only frames stamped with a membership view id
// pay for the version-4 field.
func AppendFrame(b []byte, f *Frame) []byte {
	b = appendUvarint(b, uint64(frameBodyLen(f)))
	v4 := f.View != 0
	v3 := v4 || f.Seq != 0 || f.Ack != 0 || f.Dedup != 0
	switch {
	case v4:
		b = append(b, FrameVersion4)
	case v3:
		b = append(b, FrameVersion3)
	default:
		b = append(b, FrameVersion)
	}
	b = appendUvarint(b, uint64(f.From))
	b = appendUvarint(b, uint64(f.To))
	b = appendUvarint(b, f.Tag)
	b = appendUvarint(b, f.TID)
	if v3 {
		b = appendUvarint(b, f.Seq)
		b = appendUvarint(b, f.Ack)
		b = appendUvarint(b, f.Dedup)
	}
	if v4 {
		b = appendUvarint(b, f.View)
	}
	b = append(b, f.Kind)
	b = appendFloat(b, f.Time)
	b = appendUvarint(b, uint64(len(f.Payload)))
	return append(b, f.Payload...)
}

// AppendFrameV1 encodes the frame in the legacy thread-unaware layout
// (f.TID must be zero — version 1 has nowhere to put it). It exists so
// tests can pin the cross-version decode contract.
func AppendFrameV1(b []byte, f *Frame) ([]byte, error) {
	if f.TID != 0 {
		return nil, fmt.Errorf("wire: frame version 1 cannot carry thread id %d", f.TID)
	}
	body := append([]byte(nil), FrameVersion1)
	body = appendUvarint(body, uint64(f.From))
	body = appendUvarint(body, uint64(f.To))
	body = appendUvarint(body, f.Tag)
	body = append(body, f.Kind)
	body = appendFloat(body, f.Time)
	body = appendUvarint(body, uint64(len(f.Payload)))
	body = append(body, f.Payload...)
	b = appendUvarint(b, uint64(len(body)))
	return append(b, body...), nil
}

// WriteFrame encodes and writes the frame in a single Write call, so
// concurrent writers that serialise per connection emit whole frames.
// The encode buffer is pooled; steady-state callers allocate nothing.
func WriteFrame(w io.Writer, f *Frame) error {
	buf := AppendFrame(GetBuf(), f)
	_, err := w.Write(buf)
	PutBuf(buf)
	return err
}

// ByteScanner is the reader a frame decoder needs (bufio.Reader
// satisfies it).
type ByteScanner interface {
	io.Reader
	io.ByteReader
}

// ReadFrame reads one length-prefixed frame. It returns io.EOF
// unchanged on a clean end-of-stream before the length prefix.
func ReadFrame(r ByteScanner) (Frame, error) {
	f, _, err := ReadFrameScratch(r, nil)
	return f, err
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
// the in-memory counterpart of ReadFrame, used to walk coalesced
// multi-frame buffers (a decompressed segment, a captured stream).
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

// decodeFrameBody parses a version-dispatched frame body. The payload
// aliases body.
func decodeFrameBody(body []byte) (Frame, error) {
	var f Frame
	rd := NewReader(body)
	ver := rd.Byte()
	switch ver {
	case FrameVersion1, FrameVersion, FrameVersion3, FrameVersion4:
	default:
		if err := rd.Err(); err != nil {
			return f, err
		}
		return f, fmt.Errorf("wire: unsupported frame version %d", ver)
	}
	f.From = int(rd.Uvarint())
	f.To = int(rd.Uvarint())
	f.Tag = rd.Uvarint()
	if ver >= FrameVersion {
		f.TID = rd.Uvarint()
	}
	if ver >= FrameVersion3 {
		f.Seq = rd.Uvarint()
		f.Ack = rd.Uvarint()
		f.Dedup = rd.Uvarint()
	}
	if ver >= FrameVersion4 {
		f.View = rd.Uvarint()
	}
	f.Kind = rd.Byte()
	f.Time = rd.Float()
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
