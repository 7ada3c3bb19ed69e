package wire

import (
	"bytes"
	"strings"
	"testing"
)

// membershipFrameKinds are the membership handshake kinds, the frames
// that always carry a view id.
var membershipFrameKinds = []uint8{KindJoin, KindWelcome, KindLeave}

// TestFrameV4RoundTrip is the round-trip property for the view-id
// field: for every frame kind the protocol sends — runtime kinds,
// transport control kinds and the membership handshake kinds — and a
// spread of view ids (1-byte and multi-byte varints), with and without
// reliability state, encode→decode is the identity and the flags byte
// carries the View bit.
func TestFrameV4RoundTrip(t *testing.T) {
	kinds := append(append([]uint8{}, runtimeFrameKinds...), KindHeartbeat, KindPeerDown)
	kinds = append(kinds, membershipFrameKinds...)
	views := []uint64{1, 2, 127, 128, 1 << 20, 1 << 40}
	for _, kind := range kinds {
		for _, view := range views {
			for _, seq := range []uint64{0, 77} {
				f := Frame{
					From: 1, To: 2, Tag: 9, TID: 5, Kind: kind,
					Seq: seq, Ack: seq, Dedup: seq,
					View: view, Time: 1.5, Payload: []byte("payload"),
				}
				enc := AppendFrame(nil, &f)
				want := flagTID | flagTime | flagView | reliabilityFlags(&f)
				if flags := enc[bodyStart(enc)]; flags != want {
					t.Fatalf("kind %d view %d: flags %#x, want %#x", kind, view, flags, want)
				}
				got, err := readFrameBytes(enc)
				if err != nil {
					t.Fatalf("kind %d view %d: %v", kind, view, err)
				}
				if !sameFrame(&got, &f) {
					t.Fatalf("kind %d view %d mismatch: %+v vs %+v", kind, view, got, f)
				}
			}
		}
	}
}

// TestFrameZeroViewKeepsSmallerVersions pins the elasticity-off
// contract: a frame with a zero view id carries no view bytes, so it
// is exactly as long as it was before the view field existed — the
// version-2 length without reliability state, the version-3 length
// with it. The reliable case encodes byte-for-byte as the hand-built
// reference below (the version-3 field order, the flags byte in the
// version byte's place).
func TestFrameZeroViewKeepsSmallerVersions(t *testing.T) {
	v2 := Frame{From: 3, To: 1, Tag: 777, TID: 12, Kind: 6, Time: 2.25, Payload: []byte("hello")}
	enc := AppendFrame(nil, &v2)
	if flags := enc[bodyStart(enc)]; flags&flagView != 0 || len(enc) != versionedLen(&v2) {
		t.Fatalf("zero-view zero-reliability frame: flags %#x, %d bytes, want no view bit and %d bytes",
			flags, len(enc), versionedLen(&v2))
	}

	v3 := v2
	v3.Seq, v3.Ack, v3.Dedup = 5, 4, 9
	enc3 := AppendFrame(nil, &v3)

	// Reference layout, built by hand from the documented field order:
	// flags, from, to, tag, tid, seq, ack, dedup, kind, time, payload.
	body := []byte{flagTID | flagSeq | flagAck | flagDedup | flagTime}
	body = appendUvarint(body, uint64(v3.From))
	body = appendUvarint(body, uint64(v3.To))
	body = appendUvarint(body, v3.Tag)
	body = appendUvarint(body, v3.TID)
	body = appendUvarint(body, v3.Seq)
	body = appendUvarint(body, v3.Ack)
	body = appendUvarint(body, v3.Dedup)
	body = append(body, v3.Kind)
	body = appendFloat(body, v3.Time)
	body = appendUvarint(body, uint64(len(v3.Payload)))
	body = append(body, v3.Payload...)
	want := appendUvarint(nil, uint64(len(body)))
	want = append(want, body...)
	if !bytes.Equal(enc3, want) {
		t.Fatalf("zero-view reliable frame diverged from the reference layout:\n got %x\nwant %x", enc3, want)
	}
	if len(enc3) != versionedLen(&v3) {
		t.Fatalf("zero-view reliable frame encodes in %d bytes, the version-3 layout took %d", len(enc3), versionedLen(&v3))
	}
}

// TestFrameCrossVersionViewZero: frames without a view id — bare,
// threaded, reliable — decode with a zero view on every kind: a node
// with no membership in play puts no view on the wire, and the
// receiver reads none back, never garbage.
func TestFrameCrossVersionViewZero(t *testing.T) {
	for _, kind := range runtimeFrameKinds {
		for name, f := range map[string]Frame{
			"bare":     {From: 1, Tag: 4, Kind: kind, Payload: []byte("a")},
			"tid":      {From: 1, Tag: 4, TID: 9, Kind: kind, Payload: []byte("a")},
			"reliable": {From: 1, Tag: 4, TID: 9, Seq: 3, Ack: 2, Dedup: 1, Kind: kind, Payload: []byte("a")},
		} {
			got, err := readFrameBytes(AppendFrame(nil, &f))
			if err != nil {
				t.Fatalf("%s kind %d: %v", name, kind, err)
			}
			if got.View != 0 {
				t.Fatalf("%s kind %d: decoded view %d from a frame that has none", name, kind, got.View)
			}
		}
	}
}

// TestFrameVersionBeyondV4Rejected: a flags byte with a bit beyond the
// six defined ones gets a clean decode error, never a misparse — a
// frame with a field this decoder does not know is refused outright.
func TestFrameVersionBeyondV4Rejected(t *testing.T) {
	f := Frame{From: 1, To: 2, Tag: 3, View: 7, Kind: KindJoin, Payload: []byte("x")}
	enc := AppendFrame(nil, &f)
	w := bodyStart(enc)
	for _, flags := range []byte{flagView | 1<<6, flagView | 1<<7, 0xFF} {
		bad := append([]byte(nil), enc...)
		bad[w] = flags
		_, err := readFrameBytes(bad)
		if err == nil {
			t.Fatalf("flags %#x decoded successfully", flags)
		}
		if !strings.Contains(err.Error(), "undefined frame flags") {
			t.Fatalf("flags %#x: unexpected error %v", flags, err)
		}
	}
}

// TestFrameV4Truncated: a frame with a view id, cut anywhere (inside
// the view field or before it), is a clean error.
func TestFrameV4Truncated(t *testing.T) {
	f := Frame{From: 1, To: 0, Tag: 2, TID: 3, Seq: 1 << 20, Ack: 1 << 19, Dedup: 9, View: 1 << 30, Kind: KindWelcome, Payload: []byte("xyz")}
	enc := AppendFrame(nil, &f)
	for n := 0; n < len(enc); n++ {
		if _, err := readFrameBytes(enc[:n]); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded successfully", n, len(enc))
		}
	}
}

// FuzzReadFrameV4 extends the frame-decoder fuzz corpus with seeds
// that carry a view id: any input either decodes to a frame that
// re-encodes and re-decodes to itself, or fails cleanly.
func FuzzReadFrameV4(f *testing.F) {
	seed := Frame{From: 2, To: 1, Tag: 9, TID: 1 << 33, View: 4, Kind: KindJoin, Payload: []byte("abc")}
	f.Add(AppendFrame(nil, &seed))
	full := Frame{From: 1, To: 2, Tag: 3, TID: 4, Seq: 1 << 21, Ack: 7, Dedup: 1 << 40, View: 1 << 50, Kind: KindWelcome, Payload: []byte("v4")}
	f.Add(AppendFrame(nil, &full))
	f.Add([]byte{3, flagView, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readFrameBytes(data)
		if err != nil {
			return
		}
		again, err := readFrameBytes(AppendFrame(nil, &got))
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if !sameFrame(&again, &got) {
			t.Fatalf("re-encode not idempotent: %+v vs %+v", again, got)
		}
	})
}
