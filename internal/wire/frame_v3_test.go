package wire

import (
	"bytes"
	"testing"
)

// reliabilityFlags are the presence bits f's nonzero Seq, Ack and Dedup
// set in its flags byte.
func reliabilityFlags(f *Frame) uint8 {
	var flags uint8
	if f.Seq != 0 {
		flags |= flagSeq
	}
	if f.Ack != 0 {
		flags |= flagAck
	}
	if f.Dedup != 0 {
		flags |= flagDedup
	}
	return flags
}

// TestFrameV3RoundTrip is the round-trip property for the reliability
// fields: for every frame kind the protocol sends — the runtime kinds
// plus the transport control kinds — and a spread of Seq/Ack/Dedup
// values (1-byte and multi-byte varints), encode→decode is the
// identity and the flags byte carries exactly the reliability bits of
// the nonzero fields.
func TestFrameV3RoundTrip(t *testing.T) {
	kinds := append(append([]uint8{}, runtimeFrameKinds...), KindHeartbeat, KindPeerDown, KindNack)
	seqs := []uint64{1, 127, 128, 1 << 20, 1 << 40}
	for _, kind := range kinds {
		for _, seq := range seqs {
			f := Frame{
				From: 1, To: 2, Tag: 9, TID: 5, Kind: kind,
				Seq: seq, Ack: seq - 1, Dedup: seq * 3,
				Time: 1.5, Payload: []byte("payload"),
			}
			enc := AppendFrame(nil, &f)
			want := flagTID | flagTime | reliabilityFlags(&f)
			if flags := enc[bodyStart(enc)]; flags != want {
				t.Fatalf("kind %d seq %d: flags %#x, want %#x", kind, seq, flags, want)
			}
			got, err := readFrameBytes(enc)
			if err != nil {
				t.Fatalf("kind %d seq %d: %v", kind, seq, err)
			}
			if !sameFrame(&got, &f) {
				t.Fatalf("kind %d seq %d mismatch: %+v vs %+v", kind, seq, got, f)
			}
		}
	}
}

// TestFrameZeroReliabilityIsByteIdenticalV2 pins what a cluster with
// FailureRecovery off puts on the wire: a frame with zero Seq, Ack and
// Dedup carries no reliability bytes at all. It encodes byte-for-byte
// as the hand-built reference below, which has the version-2 field
// order with the flags byte in the version byte's place — so it is
// exactly as long as the version-2 layout was.
func TestFrameZeroReliabilityIsByteIdenticalV2(t *testing.T) {
	f := Frame{From: 3, To: 1, Tag: 777, TID: 12, Kind: 6, Time: 2.25, Payload: []byte("hello")}
	enc := AppendFrame(nil, &f)

	// Reference layout, built by hand from the documented field order:
	// flags, from, to, tag, tid, kind, time, payload.
	body := []byte{flagTID | flagTime}
	body = appendUvarint(body, uint64(f.From))
	body = appendUvarint(body, uint64(f.To))
	body = appendUvarint(body, f.Tag)
	body = appendUvarint(body, f.TID)
	body = append(body, f.Kind)
	body = appendFloat(body, f.Time)
	body = appendUvarint(body, uint64(len(f.Payload)))
	body = append(body, f.Payload...)
	want := appendUvarint(nil, uint64(len(body)))
	want = append(want, body...)

	if !bytes.Equal(enc, want) {
		t.Fatalf("zero-reliability frame encoding diverged from the reference layout:\n got %x\nwant %x", enc, want)
	}
	if len(enc) != versionedLen(&f) {
		t.Fatalf("zero-reliability frame encodes in %d bytes, the version-2 layout took %d", len(enc), versionedLen(&f))
	}
}

// TestFrameCrossVersionReliabilityZero: frames that carry no
// reliability state — with or without a thread id — decode with zero
// Seq/Ack/Dedup on every kind, and set none of their flag bits: a
// sender without reliability state puts none on the wire, and the
// receiver reads none back, never garbage.
func TestFrameCrossVersionReliabilityZero(t *testing.T) {
	for _, kind := range runtimeFrameKinds {
		for name, f := range map[string]Frame{
			"bare": {From: 1, Tag: 4, Kind: kind, Payload: []byte("a")},
			"tid":  {From: 1, Tag: 4, TID: 9, Kind: kind, Payload: []byte("a")},
		} {
			enc := AppendFrame(nil, &f)
			if flags := enc[bodyStart(enc)]; flags&(flagSeq|flagAck|flagDedup) != 0 {
				t.Fatalf("%s kind %d: flags %#x carry reliability bits", name, kind, flags)
			}
			got, err := readFrameBytes(enc)
			if err != nil {
				t.Fatalf("%s kind %d: %v", name, kind, err)
			}
			if got.Seq != 0 || got.Ack != 0 || got.Dedup != 0 {
				t.Fatalf("%s kind %d: decoded reliability state %d/%d/%d from a frame that has none",
					name, kind, got.Seq, got.Ack, got.Dedup)
			}
		}
	}
}

// TestFrameV3Truncated: a frame with reliability fields, cut anywhere
// (inside those fields included), is a clean error.
func TestFrameV3Truncated(t *testing.T) {
	f := Frame{From: 1, To: 0, Tag: 2, TID: 3, Seq: 1 << 20, Ack: 1 << 19, Dedup: 9, Kind: 5, Payload: []byte("xyz")}
	enc := AppendFrame(nil, &f)
	for n := 0; n < len(enc); n++ {
		if _, err := readFrameBytes(enc[:n]); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded successfully", n, len(enc))
		}
	}
}
