package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// TestFrameV3RoundTrip is the round-trip property for the reliability
// fields: for every frame kind the protocol sends — the runtime kinds
// plus the transport control kinds — and a spread of Seq/Ack/Dedup
// values (1-byte and multi-byte varints), encode→decode is the
// identity and the encoder picks the version-3 layout.
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
			if enc[1] != FrameVersion3 {
				t.Fatalf("kind %d seq %d: encoded version %d, want %d", kind, seq, enc[1], FrameVersion3)
			}
			got, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
			if err != nil {
				t.Fatalf("kind %d seq %d: %v", kind, seq, err)
			}
			if got.From != f.From || got.To != f.To || got.Tag != f.Tag || got.TID != f.TID ||
				got.Kind != f.Kind || got.Seq != f.Seq || got.Ack != f.Ack || got.Dedup != f.Dedup ||
				got.Time != f.Time || !bytes.Equal(got.Payload, f.Payload) {
				t.Fatalf("kind %d seq %d mismatch: %+v vs %+v", kind, seq, got, f)
			}
		}
	}
}

// TestFrameZeroReliabilityIsByteIdenticalV2 pins the compatibility
// contract the fault-tolerance work must not break: a frame with zero
// Seq, Ack and Dedup encodes in the version-2 layout, byte-for-byte
// identical to the pre-reliability encoder — the wire stream of a
// cluster with FailureRecovery off is indistinguishable from the old
// protocol.
func TestFrameZeroReliabilityIsByteIdenticalV2(t *testing.T) {
	f := Frame{From: 3, To: 1, Tag: 777, TID: 12, Kind: 6, Time: 2.25, Payload: []byte("hello")}
	enc := AppendFrame(nil, &f)

	// Reference v2 layout, built by hand from the documented field
	// order: version, from, to, tag, tid, kind, time, payload.
	body := []byte{FrameVersion}
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
		t.Fatalf("zero-reliability frame encoding diverged from the v2 layout:\n got %x\nwant %x", enc, want)
	}
}

// TestFrameCrossVersionReliabilityZero: version-1 and version-2 bodies
// decode with zero Seq/Ack/Dedup on every kind — old peers simply have
// no reliability state, never garbage.
func TestFrameCrossVersionReliabilityZero(t *testing.T) {
	for _, kind := range runtimeFrameKinds {
		v1, err := AppendFrameV1(nil, &Frame{From: 1, Tag: 4, Kind: kind, Payload: []byte("a")})
		if err != nil {
			t.Fatal(err)
		}
		v2 := AppendFrame(nil, &Frame{From: 1, Tag: 4, TID: 9, Kind: kind, Payload: []byte("a")})
		for name, enc := range map[string][]byte{"v1": v1, "v2": v2} {
			got, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
			if err != nil {
				t.Fatalf("%s kind %d: %v", name, kind, err)
			}
			if got.Seq != 0 || got.Ack != 0 || got.Dedup != 0 {
				t.Fatalf("%s kind %d: decoded reliability state %d/%d/%d from a layout that has none",
					name, kind, got.Seq, got.Ack, got.Dedup)
			}
		}
	}
}

// TestFrameV3Truncated: a version-3 body cut anywhere inside the
// reliability fields is a clean error.
func TestFrameV3Truncated(t *testing.T) {
	f := Frame{From: 1, To: 0, Tag: 2, TID: 3, Seq: 1 << 20, Ack: 1 << 19, Dedup: 9, Kind: 5, Payload: []byte("xyz")}
	enc := AppendFrame(nil, &f)
	for n := 2; n < len(enc); n++ {
		if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc[:n]))); err == nil {
			t.Fatalf("truncation at %d of %d bytes decoded successfully", n, len(enc))
		}
	}
}

// TestNackFrame pins the loss report's wire form: unsequenced, no
// payload, the cumulative ack its only cargo — so it picks the
// version-3 envelope, or version 2 while nothing has been received yet
// (the hole is the link's first frame); it round-trips, and any
// truncation of it is a clean error.
func TestNackFrame(t *testing.T) {
	for _, tc := range []struct {
		ack     uint64
		version byte
	}{{0, FrameVersion}, {1, FrameVersion3}, {127, FrameVersion3}, {1 << 40, FrameVersion3}} {
		f := Frame{From: 1, To: 0, Kind: KindNack, Ack: tc.ack}
		enc := AppendFrame(nil, &f)
		if enc[1] != tc.version {
			t.Errorf("NACK with ack %d encodes as version %d, want %d", tc.ack, enc[1], tc.version)
		}
		got, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("ack %d: %v", tc.ack, err)
		}
		if got.Kind != KindNack || got.Ack != tc.ack || got.From != 1 || got.To != 0 ||
			got.Seq != 0 || got.Dedup != 0 || got.View != 0 || len(got.Payload) != 0 {
			t.Errorf("ack %d: decoded %+v", tc.ack, got)
		}
		for n := 1; n < len(enc); n++ {
			if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc[:n]))); err == nil {
				t.Errorf("ack %d: truncation at %d of %d bytes decoded successfully", tc.ack, n, len(enc))
			}
		}
	}
}
