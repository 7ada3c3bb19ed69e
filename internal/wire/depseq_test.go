package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
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

// randDepResponse draws a response entry. NewHome is only meaningful
// (and only carried) when Moved is set.
func randDepResponse(r *rand.Rand) DepResponse {
	outs := make([]Value, r.Intn(3))
	for i := range outs {
		outs[i] = randValue(r, 2)
	}
	m := DepResponse{
		Value:      randValue(r, 2),
		OutArrays:  outs,
		Err:        []string{"", "boom"}[r.Intn(2)],
		AsyncErr:   []string{"", "late"}[r.Intn(2)],
		AsyncDests: [][]int{nil, {1}, {0, 3}}[r.Intn(3)],
		Moved:      r.Intn(4) == 0,
	}
	if m.Moved {
		m.NewHome = r.Intn(8)
	}
	return m
}

// seqRequestWithHead draws a request entry whose encoding after an
// entry with ID prevID opens with exactly head.
func seqRequestWithHead(r *rand.Rand, head byte, prevID int64) DepRequest {
	m := DepRequest{
		ID:     prevID,
		Static: head&seqReqStatic != 0,
		Kind:   1 + r.Intn(300),
		Member: []string{"p0", "ping:(I)I", "total:()I"}[r.Intn(3)],
	}
	for head&seqReqSameID == 0 && m.ID == prevID {
		m.ID = r.Int63n(1<<40) - 1<<39
	}
	if head&seqReqClass != 0 {
		m.Class = []string{"Sink", "Main"}[r.Intn(2)]
	}
	if head&seqReqArgs != 0 {
		m.Args = make([]Value, 1+r.Intn(3))
		for i := range m.Args {
			m.Args[i] = randValue(r, 2)
		}
	}
	return m
}

// seqResponseWithHead draws a response entry whose encoding opens with
// exactly head.
func seqResponseWithHead(r *rand.Rand, head byte) DepResponse {
	m := DepResponse{Value: randValue(r, 2), Moved: head&seqRespMoved != 0}
	if head&seqRespOutArrays != 0 {
		m.OutArrays = []Value{randValue(r, 2)}
	}
	if head&seqRespErr != 0 {
		m.Err = "boom"
	}
	if head&seqRespAsyncErr != 0 {
		m.AsyncErr = "late"
	}
	if head&seqRespAsyncDests != 0 {
		m.AsyncDests = [][]int{{1}, {0, 3}}[r.Intn(2)]
	}
	if m.Moved {
		m.NewHome = r.Intn(300)
	}
	return m
}

// legacyDepSeq and legacyDepSeqResponse are the retired fixed layout of
// the DEPSEQ vector — every entry a complete scalar DEPENDENCE body —
// kept as the bound the presence-flags layout must never exceed.
func legacyDepSeq(reqs []DepRequest) []byte {
	b := appendUvarint(nil, uint64(len(reqs)))
	for i := range reqs {
		b = reqs[i].append(b)
	}
	return b
}

func legacyDepSeqResponse(resps []DepResponse) []byte {
	b := appendUvarint(nil, uint64(len(resps)))
	for i := range resps {
		b = resps[i].append(b)
	}
	return b
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

// checkDepSeq asserts that m round-trips and encodes no longer than the
// legacy layout.
func checkDepSeq(t *testing.T, m DepSeq) []byte {
	t.Helper()
	enc := m.Encode()
	if legacy := legacyDepSeq(m.Reqs); len(enc) > len(legacy) {
		t.Fatalf("%+v encodes in %d bytes, legacy layout took %d", m.Reqs, len(enc), len(legacy))
	}
	got, err := DecodeDepSeq(enc)
	if err != nil {
		t.Fatalf("%+v: %v", m.Reqs, err)
	}
	if len(got.Reqs) != len(m.Reqs) {
		t.Fatalf("%d entries, want %d", len(got.Reqs), len(m.Reqs))
	}
	for j := range m.Reqs {
		if !depRequestEq(got.Reqs[j], m.Reqs[j]) {
			t.Fatalf("entry %d: %+v vs %+v", j, got.Reqs[j], m.Reqs[j])
		}
	}
	return enc
}

func checkDepSeqResponse(t *testing.T, m DepSeqResponse) []byte {
	t.Helper()
	enc := m.Encode()
	if legacy := legacyDepSeqResponse(m.Resps); len(enc) > len(legacy) {
		t.Fatalf("%+v encodes in %d bytes, legacy layout took %d", m.Resps, len(enc), len(legacy))
	}
	got, err := DecodeDepSeqResponse(enc)
	if err != nil {
		t.Fatalf("%+v: %v", m.Resps, err)
	}
	if len(got.Resps) != len(m.Resps) {
		t.Fatalf("%d entries, want %d", len(got.Resps), len(m.Resps))
	}
	for j := range m.Resps {
		if !depResponseEq(got.Resps[j], m.Resps[j]) {
			t.Fatalf("entry %d: %+v vs %+v", j, got.Resps[j], m.Resps[j])
		}
	}
	return enc
}

// TestDepSeqRoundTripProperty: encode→decode is the identity for fused
// request vectors, and no vector encodes longer than under the legacy
// layout — for a lone entry of every head-bit subset (checking the head
// byte itself), for the empty vector, and for same-ID chains of length
// 1–8 mixing random subsets.
func TestDepSeqRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	checkDepSeq(t, DepSeq{})
	for head := byte(0); head <= seqReqBits; head++ {
		for i := 0; i < 20; i++ {
			m := DepSeq{Reqs: []DepRequest{seqRequestWithHead(r, head, 0)}}
			if enc := checkDepSeq(t, m); enc[1] != head {
				t.Fatalf("entry %+v: head %#x, want %#x", m.Reqs[0], enc[1], head)
			}
		}
	}
	for n := 1; n <= 8; n++ {
		for i := 0; i < 200; i++ {
			m := DepSeq{Reqs: make([]DepRequest, n)}
			var prev int64
			for j := range m.Reqs {
				m.Reqs[j] = seqRequestWithHead(r, byte(r.Intn(seqReqBits+1)), prev)
				prev = m.Reqs[j].ID
			}
			checkDepSeq(t, m)
		}
	}
	for i := 0; i < 200; i++ {
		m := DepSeq{Reqs: make([]DepRequest, r.Intn(7))}
		for j := range m.Reqs {
			m.Reqs[j] = randDepRequest(r)
		}
		checkDepSeq(t, m)
	}
}

// TestDepSeqResponseRoundTripProperty: ditto for the response vector,
// including short vectors (responder stopped at a failed entry).
func TestDepSeqResponseRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	checkDepSeqResponse(t, DepSeqResponse{})
	for head := byte(0); head <= seqRespBits; head++ {
		for i := 0; i < 20; i++ {
			m := DepSeqResponse{Resps: []DepResponse{seqResponseWithHead(r, head)}}
			if enc := checkDepSeqResponse(t, m); enc[1] != head {
				t.Fatalf("entry %+v: head %#x, want %#x", m.Resps[0], enc[1], head)
			}
		}
	}
	for i := 0; i < 500; i++ {
		m := DepSeqResponse{Resps: make([]DepResponse, r.Intn(9))}
		for j := range m.Resps {
			m.Resps[j] = randDepResponse(r)
		}
		checkDepSeqResponse(t, m)
	}
}

// kindDepSeqTest mirrors the runtime's DEPSEQ frame kind (17). The
// codec is kind-agnostic, but the envelope pins below are stated in
// terms of the kind the fusion runtime actually sends.
const kindDepSeqTest uint8 = 17

// sweepSeq is the vector a 4-field fused read sends (the benchmark's
// sweep loop): four GETFIELDs (access kind 3) of one object, and the
// four int results, each a 4-byte varint.
func sweepSeq() (DepSeq, DepSeqResponse) {
	var seq DepSeq
	var resp DepSeqResponse
	for i, f := range []string{"p0", "p1", "p2", "p3"} {
		seq.Reqs = append(seq.Reqs, DepRequest{ID: 5, Kind: 3, Member: f})
		resp.Resps = append(resp.Resps, DepResponse{Value: Value{Kind: KInt, Int: 1<<20 + int64(i)}})
	}
	return seq, resp
}

// TestDepSeqEnvelopeVersionSelection pins the fusion contract on the
// wire. The payload: the sweep vector encodes to exactly the bytes
// below — 22 for the request (the ID once, then only kind and member
// per entry) and 25 for the response (a head byte and the value per
// entry), against 33 and 45 under the legacy layout. The envelope:
// DEPSEQ introduces a payload kind, not an envelope field, so a DEPSEQ
// frame sets exactly the presence bits of the envelope state it carries
// — none for reliability or membership on a plain run, Seq/Ack/Dedup
// once reliable, View only under a live view id — and its payload
// decodes to the same vector under every combination.
func TestDepSeqEnvelopeVersionSelection(t *testing.T) {
	seq, resp := sweepSeq()
	wantReq := []byte{
		4,
		0x00, 10, 6, 2, 'p', '0',
		seqReqSameID, 6, 2, 'p', '1',
		seqReqSameID, 6, 2, 'p', '2',
		seqReqSameID, 6, 2, 'p', '3',
	}
	wantResp := []byte{
		4,
		0x00, KInt, 0x80, 0x80, 0x80, 0x01,
		0x00, KInt, 0x82, 0x80, 0x80, 0x01,
		0x00, KInt, 0x84, 0x80, 0x80, 0x01,
		0x00, KInt, 0x86, 0x80, 0x80, 0x01,
	}
	payload := seq.Encode()
	if !bytes.Equal(payload, wantReq) || len(payload) != 22 {
		t.Fatalf("sweep request encodes as % x (%d B), want % x (22 B)", payload, len(payload), wantReq)
	}
	if got := resp.Encode(); !bytes.Equal(got, wantResp) || len(got) != 25 {
		t.Fatalf("sweep response encodes as % x (%d B), want % x (25 B)", got, len(got), wantResp)
	}
	if a, b := len(legacyDepSeq(seq.Reqs)), len(legacyDepSeqResponse(resp.Resps)); a != 33 || b != 45 {
		t.Fatalf("legacy sweep vector is %d+%d B, want 33+45", a, b)
	}

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
		if err != nil || len(m.Reqs) != 4 || m.Reqs[3].Member != "p3" || m.Reqs[3].ID != 5 {
			t.Fatalf("%s: payload decode %+v (%v)", tc.name, m, err)
		}
	}
}

// TestDepSeqTruncated: both DEPSEQ bodies cut anywhere fail cleanly —
// a fused frame never misparses into a shorter valid vector — and an
// entry head with any undefined bit set is rejected.
func TestDepSeqTruncated(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var seq DepSeq
	var prev int64
	for head := byte(0); head <= seqReqBits; head++ {
		seq.Reqs = append(seq.Reqs, seqRequestWithHead(r, head, prev))
		prev = seq.Reqs[len(seq.Reqs)-1].ID
	}
	enc := seq.Encode()
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeDepSeq(enc[:n]); err == nil {
			t.Fatalf("request truncation at %d of %d bytes decoded successfully", n, len(enc))
		}
	}
	var resp DepSeqResponse
	for head := byte(0); head <= seqRespBits; head++ {
		resp.Resps = append(resp.Resps, seqResponseWithHead(r, head))
	}
	encR := resp.Encode()
	for n := 0; n < len(encR); n++ {
		if _, err := DecodeDepSeqResponse(encR[:n]); err == nil {
			t.Fatalf("response truncation at %d of %d bytes decoded successfully", n, len(encR))
		}
	}

	one, oneResp := sweepSeq()
	req1 := (&DepSeq{Reqs: one.Reqs[:1]}).Encode()
	resp1 := (&DepSeqResponse{Resps: oneResp.Resps[:1]}).Encode()
	for bit := 0; bit < 8; bit++ {
		if seqReqBits&(1<<bit) == 0 {
			bad := append([]byte(nil), req1...)
			bad[1] |= 1 << bit
			if _, err := DecodeDepSeq(bad); err == nil || !strings.Contains(err.Error(), "undefined DEPSEQ request bits") {
				t.Fatalf("request head bit %d: err %v", bit, err)
			}
		}
		if seqRespBits&(1<<bit) == 0 {
			bad := append([]byte(nil), resp1...)
			bad[1] |= 1 << bit
			if _, err := DecodeDepSeqResponse(bad); err == nil || !strings.Contains(err.Error(), "undefined DEPSEQ response bits") {
				t.Fatalf("response head bit %d: err %v", bit, err)
			}
		}
	}
}

// TestDepSeqDecodeIntoReusesStorage: the Into decoders fill the
// caller's vector in place once it has the capacity, overwriting every
// field of a recycled entry.
func TestDepSeqDecodeIntoReusesStorage(t *testing.T) {
	seq, resp := sweepSeq()
	dirty := DepRequest{ID: 99, Static: true, Class: "Stale", Kind: 7, Member: "old", Args: []Value{{Kind: KInt, Int: 1}}}
	m := DepSeq{Reqs: []DepRequest{dirty, dirty, dirty, dirty, dirty}}
	backing := &m.Reqs[0]
	if err := DecodeDepSeqInto(seq.Encode(), &m); err != nil {
		t.Fatal(err)
	}
	if &m.Reqs[0] != backing || len(m.Reqs) != 4 {
		t.Fatalf("decode reallocated or mis-sized the vector: len %d", len(m.Reqs))
	}
	for i := range seq.Reqs {
		if !depRequestEq(m.Reqs[i], seq.Reqs[i]) {
			t.Fatalf("entry %d: %+v, want %+v", i, m.Reqs[i], seq.Reqs[i])
		}
	}
	dirtyResp := DepResponse{Err: "stale", Moved: true, NewHome: 3, AsyncDests: []int{2}}
	mr := DepSeqResponse{Resps: []DepResponse{dirtyResp, dirtyResp, dirtyResp, dirtyResp}}
	backingR := &mr.Resps[0]
	if err := DecodeDepSeqResponseInto(resp.Encode(), &mr); err != nil {
		t.Fatal(err)
	}
	if &mr.Resps[0] != backingR {
		t.Fatal("response decode reallocated the vector")
	}
	for i := range resp.Resps {
		if !depResponseEq(mr.Resps[i], resp.Resps[i]) {
			t.Fatalf("response %d: %+v, want %+v", i, mr.Resps[i], resp.Resps[i])
		}
	}
	enc := seq.Encode()
	if allocs := testing.AllocsPerRun(100, func() { _ = DecodeDepSeqInto(enc, &m) }); allocs != 0 {
		t.Errorf("DecodeDepSeqInto into a sized vector: %.1f allocs, want 0", allocs)
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
