package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// runtimeFrameKinds mirrors the runtime's frame-kind space (NEW=1 …
// DEPSEQ=17). The codec is kind-agnostic, but the thread-id field
// must round-trip on every kind the protocol actually sends.
var runtimeFrameKinds = []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}

// controlFrameKinds are the transport and membership kinds at the top
// of the kind space (HEARTBEAT … NACK).
var controlFrameKinds = []uint8{KindHeartbeat, KindPeerDown, KindJoin, KindWelcome, KindLeave, KindNack}

// sameFrame reports whether two frames agree on every field; Time is
// compared bit for bit, since the codec carries it verbatim.
func sameFrame(a, b *Frame) bool {
	return a.From == b.From && a.To == b.To && a.Tag == b.Tag && a.TID == b.TID &&
		a.Kind == b.Kind && a.Seq == b.Seq && a.Ack == b.Ack && a.Dedup == b.Dedup &&
		a.View == b.View && math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
		bytes.Equal(a.Payload, b.Payload)
}

// readFrameBytes reads one frame from b through the stream decoder.
func readFrameBytes(b []byte) (Frame, error) {
	f, _, err := ReadFrameScratch(bufio.NewReader(bytes.NewReader(b)), nil)
	return f, err
}

// versionedLen is the encoded length the retired versioned envelope
// gave f under its smallest-sufficient-version rule: a version byte,
// TID and Time always present, Seq/Ack/Dedup together once any of them
// or View was nonzero, View only when nonzero. It is the bound the
// flagged layout must never exceed.
func versionedLen(f *Frame) int {
	n := 1 + uvarintLen(uint64(f.From)) + uvarintLen(uint64(f.To)) + uvarintLen(f.Tag) +
		uvarintLen(f.TID) + 1 + 8 + uvarintLen(uint64(len(f.Payload))) + len(f.Payload)
	if f.Seq != 0 || f.Ack != 0 || f.Dedup != 0 || f.View != 0 {
		n += uvarintLen(f.Seq) + uvarintLen(f.Ack) + uvarintLen(f.Dedup)
	}
	if f.View != 0 {
		n += uvarintLen(f.View)
	}
	return uvarintLen(uint64(n)) + n
}

// envelopeCases is every frame kind the protocol sends × every subset
// of the six optional envelope fields × one-byte and multi-byte varint
// values (the fixed fields scale with the optional ones).
func envelopeCases() []Frame {
	var out []Frame
	kinds := append(append([]uint8{}, runtimeFrameKinds...), controlFrameKinds...)
	for ki, kind := range kinds {
		for set := 0; set < 1<<6; set++ {
			for _, v := range []uint64{1, 127, 1 << 20, 1<<64 - 1} {
				f := Frame{From: int(v % 1000), To: 2, Tag: v, Kind: kind}
				if ki%2 == 0 {
					f.Payload = []byte("payload")
				}
				field := []*uint64{&f.TID, &f.Seq, &f.Ack, &f.Dedup, &f.View}
				for i, p := range field {
					if set&(1<<i) != 0 {
						*p = v - uint64(i)%v
					}
				}
				if set&int(flagTime) != 0 {
					f.Time = float64(v) / 3
				}
				out = append(out, f)
			}
		}
	}
	return out
}

// TestFrameEnvelopeProperty is the envelope's whole contract, checked
// over envelopeCases: decode∘encode is the identity, no frame encodes
// longer than under the retired versioned layout, a flags byte with an
// undefined bit is rejected, and a frame cut at any byte is a clean
// error.
func TestFrameEnvelopeProperty(t *testing.T) {
	cases := envelopeCases()
	t.Run("round_trip", func(t *testing.T) {
		for i := range cases {
			f := &cases[i]
			got, err := readFrameBytes(AppendFrame(nil, f))
			if err != nil || !sameFrame(&got, f) {
				t.Fatalf("%+v decoded as %+v (%v)", *f, got, err)
			}
		}
	})
	t.Run("no_longer_than_versioned", func(t *testing.T) {
		for i := range cases {
			f := &cases[i]
			if got, bound := len(AppendFrame(nil, f)), versionedLen(f); got > bound {
				t.Fatalf("%+v encodes in %d bytes, versioned layout took %d", *f, got, bound)
			}
		}
	})
	t.Run("undefined_flags_rejected", func(t *testing.T) {
		for i := range cases {
			enc := AppendFrame(nil, &cases[i])
			w := bodyStart(enc)
			for bit := 6; bit < 8; bit++ {
				bad := append([]byte(nil), enc...)
				bad[w] |= 1 << bit
				_, err := readFrameBytes(bad)
				if err == nil || !strings.Contains(err.Error(), "undefined frame flags") {
					t.Fatalf("%+v with flag bit %d: err %v", cases[i], bit, err)
				}
			}
		}
	})
	t.Run("truncation_fails_cleanly", func(t *testing.T) {
		for i := range cases {
			enc := AppendFrame(nil, &cases[i])
			body := enc[bodyStart(enc):]
			for n := 0; n < len(enc); n++ {
				if _, err := readFrameBytes(enc[:n]); err == nil {
					t.Fatalf("%+v: stream cut at %d of %d bytes decoded", cases[i], n, len(enc))
				}
			}
			// A cut body under a matching length prefix reaches the
			// body decoder itself.
			for n := 0; n < len(body); n++ {
				cut := append(appendUvarint(nil, uint64(n)), body[:n]...)
				if _, _, err := DecodeFrameBuf(cut); err == nil {
					t.Fatalf("%+v: body cut at %d of %d bytes decoded", cases[i], n, len(body))
				}
			}
		}
	})
}

// bodyStart is the offset of an encoded frame's flags byte, just past
// its length prefix.
func bodyStart(enc []byte) int {
	_, w := binary.Uvarint(enc)
	return w
}

// TestFrameThreadIDRoundTrip is the round-trip property for the
// thread-id field: for every runtime frame kind and a spread of thread
// ids (including the zero system thread and >1-varint-byte values),
// encode→decode is the identity.
func TestFrameThreadIDRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tids := []uint64{0, 1, 2, 127, 128, 1 << 20, 1<<63 - 1}
	for _, kind := range runtimeFrameKinds {
		for _, tid := range tids {
			f := Frame{
				From:    rng.Intn(8),
				To:      rng.Intn(8),
				Tag:     rng.Uint64() >> uint(rng.Intn(64)),
				TID:     tid,
				Kind:    kind,
				Time:    rng.NormFloat64(),
				Payload: make([]byte, rng.Intn(64)),
			}
			rng.Read(f.Payload)
			got, err := readFrameBytes(AppendFrame(nil, &f))
			if err != nil {
				t.Fatalf("kind %d tid %d: %v", kind, tid, err)
			}
			if !sameFrame(&got, &f) {
				t.Fatalf("kind %d tid %d mismatch: %+v vs %+v", kind, tid, got, f)
			}
		}
	}
}

// TestFrameVersion1HasNoThreadID pins the system-thread contract: a
// frame with TID 0 carries no thread-id bytes — its flags byte lacks
// the TID bit and it is exactly uvarintLen(tid) bytes shorter than the
// same frame on a logical thread — and it decodes on every frame kind
// with TID 0.
func TestFrameVersion1HasNoThreadID(t *testing.T) {
	for _, kind := range runtimeFrameKinds {
		f := Frame{From: 1, To: 0, Tag: 99, Kind: kind, Time: 2.5, Payload: []byte("legacy")}
		enc := AppendFrame(nil, &f)
		if flags := enc[bodyStart(enc)]; flags&flagTID != 0 {
			t.Fatalf("kind %d: system-thread frame has flags %#x", kind, flags)
		}
		got, err := readFrameBytes(enc)
		if err != nil {
			t.Fatalf("kind %d: decoding system-thread frame: %v", kind, err)
		}
		if got.TID != 0 {
			t.Fatalf("kind %d: system-thread frame decoded with TID %d", kind, got.TID)
		}
		if !sameFrame(&got, &f) {
			t.Fatalf("kind %d: round-trip mismatch: %+v vs %+v", kind, got, f)
		}
		threaded := f
		threaded.TID = 1 << 20
		if d := len(AppendFrame(nil, &threaded)) - len(enc); d != uvarintLen(threaded.TID) {
			t.Fatalf("kind %d: a thread id adds %d bytes, want %d", kind, d, uvarintLen(threaded.TID))
		}
	}
}

// TestFrameUnknownVersionRejected: a flags byte with a bit the decoder
// does not define is a clean error, never a panic or a silent misparse.
func TestFrameUnknownVersionRejected(t *testing.T) {
	for _, flags := range []byte{0x40, 0x80, 77, 255} {
		var f Frame
		enc := AppendFrame(nil, &f)
		// The flags byte is the first body byte, right after the length
		// prefix (a zero-payload frame's length fits one byte).
		body := append([]byte(nil), enc...)
		body[1] = flags
		if _, err := readFrameBytes(body); err == nil {
			t.Fatalf("flags %#x: decode succeeded", flags)
		}
	}
}

// TestNackFrame pins the loss report's wire form: unsequenced, no
// payload, the cumulative ack its only cargo — so its envelope carries
// no optional field but Ack, and none at all while nothing has been
// received yet (the hole is the link's first frame). It round-trips,
// and any truncation of it is a clean error.
func TestNackFrame(t *testing.T) {
	for _, ack := range []uint64{0, 1, 127, 1 << 40} {
		f := Frame{From: 1, To: 0, Kind: KindNack, Ack: ack}
		enc := AppendFrame(nil, &f)
		want := 7 // length prefix, flags, From, To, Tag, Kind, payload length
		if ack != 0 {
			want += uvarintLen(ack)
		}
		if len(enc) != want {
			t.Errorf("NACK with ack %d encodes in %d bytes (%x)", ack, len(enc), enc)
		}
		got, err := readFrameBytes(enc)
		if err != nil {
			t.Fatalf("ack %d: %v", ack, err)
		}
		if !sameFrame(&got, &f) {
			t.Errorf("ack %d: decoded %+v", ack, got)
		}
		for n := 1; n < len(enc); n++ {
			if _, err := readFrameBytes(enc[:n]); err == nil {
				t.Errorf("ack %d: truncation at %d of %d bytes decoded successfully", ack, n, len(enc))
			}
		}
	}
}

// FuzzReadFrame: arbitrary bytes must never panic the frame decoder,
// and anything that decodes must re-encode — no longer than the input —
// to a frame that decodes to itself.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range []Frame{
		{From: 2, To: 1, Tag: 9, TID: 1 << 33, Kind: 6, Time: -0.5, Payload: []byte("abc")},
		{From: 1, To: 2, Tag: 3, TID: 4, Seq: 1 << 21, Ack: 7, Dedup: 1 << 40, Kind: 9, Payload: []byte("v3")},
		{From: 1, Kind: KindNack, Ack: 1 << 14},
		{From: 1, Kind: KindNack},
		{From: 1, Kind: 2},
	} {
		f.Add(AppendFrame(nil, &seed))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readFrameBytes(data)
		if err != nil {
			return
		}
		enc := AppendFrame(nil, &got)
		if len(enc) > len(data) {
			t.Fatalf("re-encoding grew %d input bytes to %d", len(data), len(enc))
		}
		again, err := readFrameBytes(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !sameFrame(&again, &got) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", again, got)
		}
	})
}
