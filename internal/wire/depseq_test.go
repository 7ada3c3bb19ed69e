package wire

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func randDepRequest(r *rand.Rand) DepRequest {
	args := make([]Value, r.Intn(4))
	for i := range args {
		args[i] = randValue(r, 2)
	}
	return DepRequest{
		ID:     r.Int63(),
		Static: r.Intn(2) == 0,
		Class:  []string{"", "Sink", "Main"}[r.Intn(3)],
		Kind:   1 + r.Intn(10),
		Member: []string{"ping:(I)I", "acc", "total:()I"}[r.Intn(3)],
		Args:   args,
	}
}

func randDepResponse(r *rand.Rand) DepResponse {
	outs := make([]Value, r.Intn(3))
	for i := range outs {
		outs[i] = randValue(r, 2)
	}
	return DepResponse{
		Value:      randValue(r, 2),
		OutArrays:  outs,
		Err:        []string{"", "boom"}[r.Intn(2)],
		AsyncErr:   []string{"", "late"}[r.Intn(2)],
		AsyncDests: [][]int{nil, {1}, {0, 3}}[r.Intn(3)],
		Moved:      r.Intn(4) == 0,
		NewHome:    r.Intn(8),
	}
}

// valueEqBits compares decoded values structurally, treating floats by
// bit pattern (the codec is bit-exact, so NaN payloads must survive).
func valueEqBits(a, b Value) bool {
	a, b = normalize(a), normalize(b)
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == KFloat {
		return math.Float64bits(a.Float) == math.Float64bits(b.Float)
	}
	if a.Kind == KArr {
		if a.Elem != b.Elem || len(a.Arr) != len(b.Arr) {
			return false
		}
		for i := range a.Arr {
			if !valueEqBits(a.Arr[i], b.Arr[i]) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

func valuesEqBits(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !valueEqBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func depRequestEq(a, b DepRequest) bool {
	return a.ID == b.ID && a.Static == b.Static && a.Class == b.Class &&
		a.Kind == b.Kind && a.Member == b.Member && valuesEqBits(a.Args, b.Args)
}

func depResponseEq(a, b DepResponse) bool {
	return valueEqBits(a.Value, b.Value) && valuesEqBits(a.OutArrays, b.OutArrays) &&
		a.Err == b.Err && a.AsyncErr == b.AsyncErr &&
		reflect.DeepEqual(normInts(a.AsyncDests), normInts(b.AsyncDests)) &&
		a.Moved == b.Moved && a.NewHome == b.NewHome
}

func normInts(v []int) []int {
	if len(v) == 0 {
		return nil
	}
	return v
}

// TestDepSeqRoundTripProperty: encode→decode is the identity for fused
// request vectors of every length the runtime sends, including the
// empty vector and single-entry degenerate case.
func TestDepSeqRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		m := DepSeq{Reqs: make([]DepRequest, r.Intn(7))}
		for j := range m.Reqs {
			m.Reqs[j] = randDepRequest(r)
		}
		got, err := DecodeDepSeq(m.Encode())
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if len(got.Reqs) != len(m.Reqs) {
			t.Fatalf("iter %d: %d entries, want %d", i, len(got.Reqs), len(m.Reqs))
		}
		for j := range m.Reqs {
			if !depRequestEq(got.Reqs[j], m.Reqs[j]) {
				t.Fatalf("iter %d entry %d: %+v vs %+v", i, j, got.Reqs[j], m.Reqs[j])
			}
		}
	}
}

// TestDepSeqResponseRoundTripProperty: ditto for the response vector,
// including short vectors (responder stopped at a failed entry).
func TestDepSeqResponseRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		m := DepSeqResponse{Resps: make([]DepResponse, r.Intn(7))}
		for j := range m.Resps {
			m.Resps[j] = randDepResponse(r)
		}
		got, err := DecodeDepSeqResponse(m.Encode())
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if len(got.Resps) != len(m.Resps) {
			t.Fatalf("iter %d: %d entries, want %d", i, len(got.Resps), len(m.Resps))
		}
		for j := range m.Resps {
			if !depResponseEq(got.Resps[j], m.Resps[j]) {
				t.Fatalf("iter %d entry %d: %+v vs %+v", i, j, got.Resps[j], m.Resps[j])
			}
		}
	}
}

// kindDepSeqTest mirrors the runtime's DEPSEQ frame kind (17). The
// codec is kind-agnostic, but the envelope pins below are stated in
// terms of the kind the fusion runtime actually sends.
const kindDepSeqTest uint8 = 17

// TestDepSeqEnvelopeVersionSelection pins the fusion contract on the
// envelope: DEPSEQ introduces a payload kind, not an envelope field,
// so a DEPSEQ frame sets exactly the presence bits of the envelope
// state it carries — none for reliability or membership on a plain
// run, Seq/Ack/Dedup once reliable, View only under a live view id —
// and its payload decodes to the same vector under every combination.
func TestDepSeqEnvelopeVersionSelection(t *testing.T) {
	payload := (&DepSeq{Reqs: []DepRequest{{ID: 4, Kind: 3, Member: "acc"}}}).Encode()
	base := Frame{From: 1, To: 0, Tag: 12, TID: 3, Kind: kindDepSeqTest, Payload: payload}
	rel := base
	rel.Seq, rel.Ack, rel.Dedup = 9, 8, 7
	viewed := rel
	viewed.View = 2

	for _, tc := range []struct {
		name  string
		f     Frame
		flags uint8
	}{
		{"plain", base, flagTID},
		{"reliable", rel, flagTID | flagSeq | flagAck | flagDedup},
		{"viewed", viewed, flagTID | flagSeq | flagAck | flagDedup | flagView},
	} {
		enc := AppendFrame(nil, &tc.f)
		if flags := enc[bodyStart(enc)]; flags != tc.flags {
			t.Fatalf("%s DEPSEQ frame: flags %#x, want %#x", tc.name, flags, tc.flags)
		}
		f, err := readFrameBytes(enc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !sameFrame(&f, &tc.f) {
			t.Fatalf("%s: decoded %+v, want %+v", tc.name, f, tc.f)
		}
		m, err := DecodeDepSeq(f.Payload)
		if err != nil || len(m.Reqs) != 1 || m.Reqs[0].Member != "acc" {
			t.Fatalf("%s: payload decode %+v (%v)", tc.name, m, err)
		}
	}
}

// TestDepSeqTruncated: both DEPSEQ bodies cut anywhere fail cleanly —
// a fused frame never misparses into a shorter valid vector.
func TestDepSeqTruncated(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	seq := DepSeq{Reqs: []DepRequest{randDepRequest(r), randDepRequest(r), randDepRequest(r)}}
	enc := seq.Encode()
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeDepSeq(enc[:n]); err == nil {
			t.Fatalf("request truncation at %d of %d bytes decoded successfully", n, len(enc))
		}
	}
	resp := DepSeqResponse{Resps: []DepResponse{randDepResponse(r), randDepResponse(r)}}
	encR := resp.Encode()
	for n := 0; n < len(encR); n++ {
		if _, err := DecodeDepSeqResponse(encR[:n]); err == nil {
			t.Fatalf("response truncation at %d of %d bytes decoded successfully", n, len(encR))
		}
	}
}

// FuzzDecodeDepSeq: any input either fails cleanly or decodes to a
// vector that re-encodes and re-decodes to itself.
func FuzzDecodeDepSeq(f *testing.F) {
	r := rand.New(rand.NewSource(10))
	f.Add((&DepSeq{Reqs: []DepRequest{randDepRequest(r), randDepRequest(r)}}).Encode())
	f.Add((&DepSeq{}).Encode())
	f.Add([]byte{})
	f.Add([]byte{3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeDepSeq(data)
		if err != nil {
			return
		}
		got, err := DecodeDepSeq(m.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(got.Reqs) != len(m.Reqs) {
			t.Fatalf("re-decode %d entries, want %d", len(got.Reqs), len(m.Reqs))
		}
		for i := range m.Reqs {
			if !depRequestEq(got.Reqs[i], m.Reqs[i]) {
				t.Fatalf("entry %d: %+v vs %+v", i, got.Reqs[i], m.Reqs[i])
			}
		}
	})
}

// FuzzDecodeDepSeqResponse: ditto for the response vector.
func FuzzDecodeDepSeqResponse(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	f.Add((&DepSeqResponse{Resps: []DepResponse{randDepResponse(r)}}).Encode())
	f.Add((&DepSeqResponse{}).Encode())
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeDepSeqResponse(data)
		if err != nil {
			return
		}
		got, err := DecodeDepSeqResponse(m.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(got.Resps) != len(m.Resps) {
			t.Fatalf("re-decode %d entries, want %d", len(got.Resps), len(m.Resps))
		}
		for i := range m.Resps {
			if !depResponseEq(got.Resps[i], m.Resps[i]) {
				t.Fatalf("entry %d: %+v vs %+v", i, got.Resps[i], m.Resps[i])
			}
		}
	})
}
