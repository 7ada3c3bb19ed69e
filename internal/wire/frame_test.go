package wire

import (
	"bufio"
	"bytes"
	"math/rand"
	"testing"
)

// runtimeFrameKinds mirrors the runtime's frame-kind space (NEW=1 …
// DEPSEQ=17). The codec is kind-agnostic, but the thread-id field
// must round-trip on every kind the protocol actually sends.
var runtimeFrameKinds = []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}

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
			var buf bytes.Buffer
			if err := WriteFrame(&buf, &f); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFrame(bufio.NewReader(&buf))
			if err != nil {
				t.Fatalf("kind %d tid %d: %v", kind, tid, err)
			}
			if got.From != f.From || got.To != f.To || got.Tag != f.Tag || got.TID != f.TID ||
				got.Kind != f.Kind || got.Time != f.Time || !bytes.Equal(got.Payload, f.Payload) {
				t.Fatalf("kind %d tid %d mismatch: %+v vs %+v", kind, tid, got, f)
			}
		}
	}
}

// TestFrameVersion1HasNoThreadID pins the cross-version contract: a
// version-1 body (the layout that predates thread ids) decodes on
// every frame kind with TID 0, and the v1 encoder refuses to encode a
// frame that carries one — the version byte alone decides whether the
// field exists.
func TestFrameVersion1HasNoThreadID(t *testing.T) {
	for _, kind := range runtimeFrameKinds {
		f := Frame{From: 1, To: 0, Tag: 99, Kind: kind, Time: 2.5, Payload: []byte("legacy")}
		enc, err := AppendFrameV1(nil, &f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("kind %d: decoding v1 frame: %v", kind, err)
		}
		if got.TID != 0 {
			t.Fatalf("kind %d: v1 frame decoded with TID %d", kind, got.TID)
		}
		if got.From != f.From || got.Tag != f.Tag || got.Kind != f.Kind || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("kind %d: v1 round-trip mismatch: %+v vs %+v", kind, got, f)
		}
	}
	if _, err := AppendFrameV1(nil, &Frame{TID: 7}); err == nil {
		t.Fatal("AppendFrameV1 accepted a frame carrying a thread id")
	}
}

// TestFrameUnknownVersionRejected: a version byte the decoder does not
// know is a clean error, never a panic or a silent misparse.
func TestFrameUnknownVersionRejected(t *testing.T) {
	for _, ver := range []byte{0, 5, 77, 255} {
		var f Frame
		enc := AppendFrame(nil, &f)
		// The version byte is the first body byte, right after the
		// length prefix (a zero-payload frame's length fits one byte).
		body := append([]byte(nil), enc...)
		body[1] = ver
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(body))); err == nil {
			t.Fatalf("version %d: decode succeeded", ver)
		}
	}
}

// FuzzReadFrame: arbitrary bytes must never panic the frame decoder,
// and anything that decodes must re-encode to a byte-identical frame.
func FuzzReadFrame(f *testing.F) {
	seed := Frame{From: 2, To: 1, Tag: 9, TID: 1 << 33, Kind: 6, Time: -0.5, Payload: []byte("abc")}
	f.Add(AppendFrame(nil, &seed))
	v3 := Frame{From: 1, To: 2, Tag: 3, TID: 4, Seq: 1 << 21, Ack: 7, Dedup: 1 << 40, Kind: 9, Payload: []byte("v3")}
	f.Add(AppendFrame(nil, &v3))
	f.Add(AppendFrame(nil, &Frame{From: 1, Kind: KindNack, Ack: 1 << 14}))
	f.Add(AppendFrame(nil, &Frame{From: 1, Kind: KindNack}))
	if v1, err := AppendFrameV1(nil, &Frame{From: 1, Kind: 2}); err == nil {
		f.Add(v1)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		enc := AppendFrame(nil, &got)
		again, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.From != got.From || again.To != got.To || again.Tag != got.Tag ||
			again.TID != got.TID || again.Kind != got.Kind || again.Time != got.Time ||
			again.Seq != got.Seq || again.Ack != got.Ack || again.Dedup != got.Dedup ||
			!bytes.Equal(again.Payload, got.Payload) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", again, got)
		}
	})
}
