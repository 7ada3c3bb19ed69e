package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// randDepRequest draws a request entry, by site or (one in four) by
// name.
func randDepRequest(r *rand.Rand) DepRequest {
	args := make([]Value, r.Intn(4))
	for i := range args {
		args[i] = randValue(r, 2)
	}
	m := DepRequest{
		ID:    r.Int63(),
		Async: r.Intn(4) == 0,
		Site:  r.Intn(300),
		Args:  args,
	}
	if r.Intn(4) == 0 {
		m.Site = 0
		m.Static = r.Intn(2) == 0
		m.Class = []string{"", "Sink", "Main"}[r.Intn(3)]
		m.Kind = 1 + r.Intn(10)
		m.Member = []string{"ping:(I)I", "acc", "total:()I"}[r.Intn(3)]
	}
	return m
}

// validReqHead reports whether a request head sets only defined bits:
// the static and class bits are defined only in the by-name layout.
func validReqHead(head byte) bool {
	return head&^seqReqBits == 0 && (head&seqReqByName != 0 || head&(seqReqStatic|seqReqClass) == 0)
}

// randDepResponse draws a response entry. NewHome is only meaningful
// (and only carried) when Moved is set.
func randDepResponse(r *rand.Rand) DepResponse {
	outs := make([]Value, r.Intn(3))
	for i := range outs {
		outs[i] = randValue(r, 2)
	}
	m := DepResponse{
		Value:     randValue(r, 2),
		OutArrays: outs,
		Err:       []string{"", "boom"}[r.Intn(2)],
		AsyncErr:  []string{"", "late"}[r.Intn(2)],
		Moved:     r.Intn(4) == 0,
	}
	if m.Moved {
		m.NewHome = r.Intn(8)
	}
	if r.Intn(4) == 0 {
		m.Patches = randPatches(r)
	}
	return m
}

// randPatches draws a carried patch list of one to three patches, drops
// and updates mixed.
func randPatches(r *rand.Rand) []InvalidateRequest {
	ps := make([]InvalidateRequest, 1+r.Intn(3))
	for i := range ps {
		ps[i] = InvalidateRequest{ID: r.Int63n(1<<40) - 1<<39, Ver: uint16(r.Intn(1 << 16)), Slot: r.Intn(300)}
		if r.Intn(2) == 0 {
			ps[i].Update, ps[i].Value = true, randValue(r, 0)
		}
	}
	return ps
}

// randReqHead draws a valid request head.
func randReqHead(r *rand.Rand) byte {
	for {
		if head := byte(r.Intn(seqReqBits + 1)); validReqHead(head) {
			return head
		}
	}
}

// seqRequestWithHead draws a request entry whose encoding after an
// entry with ID prevID opens with exactly head, which must be valid
// (validReqHead).
func seqRequestWithHead(r *rand.Rand, head byte, prevID int64) DepRequest {
	m := DepRequest{
		ID:     prevID,
		Static: head&seqReqStatic != 0,
		Async:  head&seqReqAsync != 0,
	}
	if head&seqReqByName != 0 {
		m.Kind = 1 + r.Intn(300)
		m.Member = []string{"p0", "ping:(I)I", "total:()I"}[r.Intn(3)]
	} else {
		m.Site = []int{0, 5, 127, 128, 1 << 20}[r.Intn(5)]
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
// exactly head, which must set no undefined bit.
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
	if m.Moved {
		m.NewHome = r.Intn(300)
	}
	if head&seqRespPatches != 0 {
		m.Patches = randPatches(r)
	}
	return m
}

// The retired fixed layouts, kept as the bounds the access vector must
// never exceed. legacyDepRequest and legacyDepResponse are the old
// scalar DEPENDENCE request and reply bodies; legacyDepSeq and
// legacyDepSeqResponse the old DEPSEQ vector (every entry a complete
// scalar body); legacyBatch the old DEPENDENCE_BATCH body (an Ack byte
// before the vector); legacyNewResponse the old NEW reply.
func legacyDepRequest(b []byte, m *DepRequest) []byte {
	b = appendVarint(b, m.ID)
	b = appendBool(b, m.Static)
	b = appendString(b, m.Class)
	b = appendVarint(b, int64(m.Kind))
	b = appendString(b, m.Member)
	return appendValues(b, m.Args)
}

func legacyDepResponse(b []byte, m *DepResponse) []byte {
	b = m.Value.Append(b)
	b = appendValues(b, m.OutArrays)
	b = appendString(b, m.Err)
	b = appendString(b, m.AsyncErr)
	b = appendInts(b, nil) // the retired outstanding-destination list
	b = appendBool(b, m.Moved)
	b = appendUvarint(b, uint64(m.NewHome))
	// The legacy layout had no patch list: a patch went in an INVALIDATE
	// of its own. The bound prices carried patches at their own bytes.
	for i := range m.Patches {
		b = m.Patches[i].appendPatch(b, i < len(m.Patches)-1)
	}
	return b
}

func legacyDepSeq(reqs []DepRequest) []byte {
	b := appendUvarint(nil, uint64(len(reqs)))
	for i := range reqs {
		b = legacyDepRequest(b, &reqs[i])
	}
	return b
}

func legacyDepSeqResponse(resps []DepResponse) []byte {
	b := appendUvarint(nil, uint64(len(resps)))
	for i := range resps {
		b = legacyDepResponse(b, &resps[i])
	}
	return b
}

func legacyBatch(reqs []DepRequest) []byte {
	return append(appendBool(nil, true), legacyDepSeq(reqs)...)
}

func legacyNewResponse(m *DepResponse) []byte {
	b := appendVarint(nil, m.Value.Int)
	b = appendValues(b, m.OutArrays)
	b = appendString(b, m.Err)
	b = appendString(b, m.AsyncErr)
	return appendInts(b, nil)
}

// decodeDepSeqResponse is DecodeDepSeqResponseInto into a fresh vector.
func decodeDepSeqResponse(data []byte) (DepSeqResponse, error) {
	var m DepSeqResponse
	err := DecodeDepSeqResponseInto(data, &m)
	return m, err
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
	return a.ID == b.ID && a.Static == b.Static && a.Async == b.Async && a.Site == b.Site && a.Class == b.Class &&
		a.Kind == b.Kind && a.Member == b.Member && valuesEqBits(a.Args, b.Args)
}

func depResponseEq(a, b DepResponse) bool {
	return valueEqBits(a.Value, b.Value) && valuesEqBits(a.OutArrays, b.OutArrays) &&
		a.Err == b.Err && a.AsyncErr == b.AsyncErr &&
		a.Moved == b.Moved && a.NewHome == b.NewHome &&
		slices.EqualFunc(a.Patches, b.Patches, sameInvalidate)
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
	got, err := decodeDepSeqResponse(enc)
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
		if !validReqHead(head) {
			continue
		}
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
				m.Reqs[j] = seqRequestWithHead(r, randReqHead(r), prev)
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
		if head&^seqRespBits != 0 {
			continue
		}
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
// sweep loop): four GETFIELDs of one object, sites 3 to 6, and the four
// int results, each a 4-byte varint.
func sweepSeq() (DepSeq, DepSeqResponse) {
	var seq DepSeq
	var resp DepSeqResponse
	for i := 0; i < 4; i++ {
		seq.Reqs = append(seq.Reqs, DepRequest{ID: 5, Site: 3 + i})
		resp.Resps = append(resp.Resps, DepResponse{Value: Value{Kind: KInt, Int: 1<<20 + int64(i)}})
	}
	return seq, resp
}

// sweepByName is sweepSeq's request in the by-name layout: access kind
// 3 and the field name in place of each site.
func sweepByName() DepSeq {
	var seq DepSeq
	for _, f := range []string{"p0", "p1", "p2", "p3"} {
		seq.Reqs = append(seq.Reqs, DepRequest{ID: 5, Kind: 3, Member: f})
	}
	return seq
}

// TestDepSeqEnvelopeVersionSelection pins the fusion contract on the
// wire. The payload: the sweep vector encodes to exactly the bytes
// below — 10 for the request (the ID once, then a head byte and the
// site per entry) and 25 for the response (a head byte and the value
// per entry), against 33 and 45 under the legacy layout. The envelope:
// DEPSEQ introduces a payload kind, not an envelope field, so a DEPSEQ
// frame sets exactly the presence bits of the envelope state it carries
// — none for reliability or membership on a plain run, Seq/Ack/Dedup
// once reliable, View only under a live view id — and its payload
// decodes to the same vector under every combination.
func TestDepSeqEnvelopeVersionSelection(t *testing.T) {
	seq, resp := sweepSeq()
	wantReq := []byte{4, 0x00, 10, 3, seqReqSameID, 4, seqReqSameID, 5, seqReqSameID, 6}
	wantResp := []byte{
		4,
		0x00, KInt, 0x80, 0x80, 0x80, 0x01,
		0x00, KInt, 0x82, 0x80, 0x80, 0x01,
		0x00, KInt, 0x84, 0x80, 0x80, 0x01,
		0x00, KInt, 0x86, 0x80, 0x80, 0x01,
	}
	payload := seq.Encode()
	if !bytes.Equal(payload, wantReq) || len(payload) != 10 {
		t.Fatalf("sweep request encodes as % x (%d B), want % x (10 B)", payload, len(payload), wantReq)
	}
	if got := resp.Encode(); !bytes.Equal(got, wantResp) || len(got) != 25 {
		t.Fatalf("sweep response encodes as % x (%d B), want % x (25 B)", got, len(got), wantResp)
	}
	if a, b := len(legacyDepSeq(sweepByName().Reqs)), len(legacyDepSeqResponse(resp.Resps)); a != 33 || b != 45 {
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
		if err != nil || len(m.Reqs) != 4 || m.Reqs[3].Site != 6 || m.Reqs[3].ID != 5 {
			t.Fatalf("%s: payload decode %+v (%v)", tc.name, m, err)
		}
	}
}

// pingExchange is one round trip of the rpc_storm ping: a DEPENDENCE
// calling ping(I)I (site 7) with one int argument, and its int result.
// Both ints sit in [2^20, 2^26), where a zig-zag varint is four bytes.
func pingExchange() (DepRequest, DepResponse) {
	req := DepRequest{ID: 2, Site: 7, Args: []Value{{Kind: KInt, Int: 1<<20 + 7}}}
	return req, DepResponse{Value: Value{Kind: KInt, Int: 1<<20 + 8}}
}

// TestAccessVectorGoldens pins the one-entry and batch bodies byte for
// byte. The ping exchange is 10 B out and 7 B back (the retired fixed
// layouts took 20 and 11); a batch of three same-object async calls
// names the object once (17 B against 53); a NEW reply is the created
// id as a KInt value (5 B against 6).
func TestAccessVectorGoldens(t *testing.T) {
	req, resp := pingExchange()
	wantReq := []byte{1, seqReqArgs, 4, 7, 1, KInt, 0x8e, 0x80, 0x80, 0x01}
	wantResp := []byte{1, 0x00, KInt, 0x90, 0x80, 0x80, 0x01}
	golden := func(name string, got, want []byte, legacy int) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s encodes as % x (%d B), want % x (%d B)", name, got, len(got), want, len(want))
		}
		if len(want) > legacy {
			t.Errorf("%s: %d B, longer than the legacy %d B", name, len(want), legacy)
		}
	}
	golden("ping request", req.Encode(), wantReq, len(legacyDepRequest(nil, &req)))
	golden("ping reply", resp.Encode(), wantResp, len(legacyDepResponse(nil, &resp)))
	if len(wantReq) != 10 || len(wantResp) != 7 || len(legacyDepResponse(nil, &resp)) != 11 {
		t.Errorf("ping exchange is %d+%d B (legacy reply %d B), want 10+7 (11)",
			len(wantReq), len(wantResp), len(legacyDepResponse(nil, &resp)))
	}
	if got, err := DecodeDepResponse(wantResp); err != nil || !depResponseEq(got, resp) {
		t.Errorf("ping reply decodes as %+v (%v)", got, err)
	}

	var batch DepSeq
	for i := int64(1); i <= 3; i++ {
		batch.Reqs = append(batch.Reqs, DepRequest{ID: 5, Site: 9, Args: []Value{{Kind: KInt, Int: i}}})
	}
	wantBatch := []byte{
		3,
		seqReqArgs, 10, 9, 1, KInt, 2,
		seqReqSameID | seqReqArgs, 9, 1, KInt, 4,
		seqReqSameID | seqReqArgs, 9, 1, KInt, 6,
	}
	// The legacy bound is the batch's by-name layout's, whose entries
	// named kind 8 and member tick:(I)V.
	byName := batch
	byName.Reqs = slices.Clone(batch.Reqs)
	for i := range byName.Reqs {
		byName.Reqs[i].Kind, byName.Reqs[i].Member = 8, "tick:(I)V"
	}
	golden("batch", batch.Encode(), wantBatch, len(legacyBatch(byName.Reqs)))
	if len(wantBatch) != 17 || len(legacyBatch(byName.Reqs)) != 53 {
		t.Errorf("batch is %d B (legacy %d B), want 17 (53)", len(wantBatch), len(legacyBatch(byName.Reqs)))
	}

	created := DepResponse{Value: Value{Kind: KInt, Int: 129}}
	golden("NEW reply", created.Encode(), []byte{1, 0x00, KInt, 0x82, 0x02}, len(legacyNewResponse(&created)))
	if n := len(legacyNewResponse(&created)); n != 6 {
		t.Errorf("legacy NEW reply is %d B, want 6", n)
	}
	if got, err := DecodeDepResponse(created.Encode()); err != nil || got.Value.Int != 129 {
		t.Errorf("NEW reply decodes as %+v (%v)", got, err)
	}
}

// TestLeadSplice: Lead puts a lead of async entries ahead of an encoded
// vector's entries, and the joined vector decodes to both, in order. A
// lead ending on a nonzero ID ahead of a first entry that elided ID 0 (a
// static access) spells the 0 out, and the joined vector cut at any byte
// fails to decode.
func TestLeadSplice(t *testing.T) {
	tick := DepRequest{ID: 5, Async: true, Kind: 8, Member: "tick:(I)V", Args: []Value{{Kind: KInt, Int: 1}}}
	static := DepRequest{Static: true, Class: "Main", Kind: 4, Member: "total"}
	body := static.Encode()
	if body[1]&seqReqSameID == 0 {
		t.Fatalf("a lone static access names ID 0: % x", body)
	}
	enc := Lead([]DepRequest{tick, tick}, body)
	if want := (&DepSeq{Reqs: []DepRequest{tick, tick, static}}).Encode(); !bytes.Equal(enc, want) {
		t.Fatalf("led static access encodes as % x, want % x", enc, want)
	}
	got, err := DecodeDepSeq(enc)
	if err != nil || len(got.Reqs) != 3 || !depRequestEq(got.Reqs[2], static) || !depRequestEq(got.Reqs[0], tick) {
		t.Fatalf("led static access decodes as %+v (%v)", got.Reqs, err)
	}
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeDepSeq(enc[:n]); err == nil {
			t.Fatalf("cut at %d of %d bytes decoded", n, len(enc))
		}
	}

	r := rand.New(rand.NewSource(14))
	for i := 0; i < 500; i++ {
		lead := make([]DepRequest, 1+r.Intn(4))
		for j := range lead {
			lead[j] = randDepRequest(r)
			lead[j].Async = true
			if j > 0 && r.Intn(2) == 0 {
				lead[j].ID = lead[j-1].ID
			}
		}
		var body DepSeq
		var prev int64
		for j := r.Intn(4); j >= 0; j-- {
			body.Reqs = append(body.Reqs, seqRequestWithHead(r, randReqHead(r), prev))
			prev = body.Reqs[len(body.Reqs)-1].ID
		}
		got, err := DecodeDepSeq(Lead(lead, body.Encode()))
		want := append(lead, body.Reqs...)
		if err != nil || len(got.Reqs) != len(want) {
			t.Fatalf("lead %+v, body %+v: %d entries (%v)", lead, body.Reqs, len(got.Reqs), err)
		}
		for j := range want {
			if !depRequestEq(got.Reqs[j], want[j]) {
				t.Fatalf("entry %d: %+v, want %+v", j, got.Reqs[j], want[j])
			}
		}
	}
}

// optionalParts counts the reply parts a response entry carries only
// when present: OutArrays, Err and AsyncErr. The legacy layouts had a
// fourth, the retired outstanding-destination list, which the access
// vector never carries.
func optionalParts(m *DepResponse) int {
	n := 0
	for _, present := range []bool{len(m.OutArrays) > 0, m.Err != "", m.AsyncErr != ""} {
		if present {
			n++
		}
	}
	return n
}

// TestOneEntryBodiesNeverLonger compares the one-entry and batch bodies
// with their retired fixed layouts. A DEPENDENCE request of either shape
// the runtime sends (an instance access, or a static access naming its
// class) and an all-async batch body are never longer. A reply pays one
// count byte and one head byte and saves one byte per absent optional
// part, plus the Moved flag and, when not Moved, the NewHome byte: a
// DEPENDENCE reply is longer only when Moved with every optional part
// present (by one byte), and a NEW reply, whose id replaces the Value,
// is never longer while it carries at most one optional part. Every
// body round-trips.
func TestOneEntryBodiesNeverLonger(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		// Static accesses address ID 0, and a by-name one names its
		// class. A request by site is held against its shortest
		// by-name twin, a static one against a static twin.
		req := randDepRequest(r)
		req.Class = ""
		if req.Static {
			req.ID, req.Class = 0, "Main"
		}
		twin := req
		if !req.ByName() {
			twin.Kind, twin.Member = 1, "x"
			if req.ID == 0 {
				twin.Static, twin.Class = true, "Main"
			}
		}
		enc := req.Encode()
		if legacy := legacyDepRequest(nil, &twin); len(enc) > len(legacy) {
			t.Fatalf("%+v: DEPENDENCE body %d B, legacy %d B", req, len(enc), len(legacy))
		}
		if got, err := DecodeDepSeq(enc); err != nil || len(got.Reqs) != 1 || !depRequestEq(got.Reqs[0], req) {
			t.Fatalf("%+v decoded as %+v (%v)", req, got, err)
		}

		resp := randDepResponse(r)
		enc = resp.Encode()
		want := len(legacyDepResponse(nil, &resp)) + 1 - (4 - optionalParts(&resp))
		if !resp.Moved {
			want--
		}
		if len(enc) != want {
			t.Fatalf("%+v: DEPENDENCE reply %d B, want %d", resp, len(enc), want)
		}
		if got, err := DecodeDepResponse(enc); err != nil || !depResponseEq(got, resp) {
			t.Fatalf("%+v decoded as %+v (%v)", resp, got, err)
		}

		created := DepResponse{Value: Value{Kind: KInt, Int: r.Int63n(1 << 40)}, Err: resp.Err,
			AsyncErr: resp.AsyncErr, OutArrays: resp.OutArrays}
		if n, legacy := len(created.Encode()), len(legacyNewResponse(&created)); n != legacy+optionalParts(&created)-1 {
			t.Fatalf("%+v: NEW reply %d B, legacy %d B", created, n, legacy)
		}

		batch := DepSeq{Reqs: make([]DepRequest, 1+r.Intn(6))}
		for j := range batch.Reqs {
			batch.Reqs[j] = randDepRequest(r)
			batch.Reqs[j].Class, batch.Reqs[j].Static = "", false
			if j > 0 && r.Intn(2) == 0 {
				batch.Reqs[j].ID = batch.Reqs[j-1].ID
			}
		}
		if n, legacy := len(checkDepSeq(t, batch)), len(legacyBatch(batch.Reqs)); n >= legacy {
			t.Fatalf("%+v: batch %d B, legacy %d B", batch.Reqs, n, legacy)
		}
	}
}

// TestOneEntryTruncated: a one-entry request or reply cut at any byte
// fails cleanly, and DecodeDepResponse refuses a reply vector of any
// length but one.
func TestOneEntryTruncated(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 200; i++ {
		req, resp := randDepRequest(r), randDepResponse(r)
		enc, encR := req.Encode(), resp.Encode()
		for n := 0; n < len(enc); n++ {
			if _, err := DecodeDepSeq(enc[:n]); err == nil {
				t.Fatalf("%+v: cut at %d of %d bytes decoded", req, n, len(enc))
			}
		}
		for n := 0; n < len(encR); n++ {
			if _, err := DecodeDepResponse(encR[:n]); err == nil {
				t.Fatalf("%+v: cut at %d of %d bytes decoded", resp, n, len(encR))
			}
		}
	}
	_, resp := pingExchange()
	for _, n := range []int{0, 2} {
		enc := (&DepSeqResponse{Resps: slices.Repeat([]DepResponse{resp}, n)}).Encode()
		if _, err := DecodeDepResponse(enc); err == nil || !strings.Contains(err.Error(), "want 1") {
			t.Errorf("%d-entry reply vector: err %v", n, err)
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
		if validReqHead(head) {
			seq.Reqs = append(seq.Reqs, seqRequestWithHead(r, head, prev))
			prev = seq.Reqs[len(seq.Reqs)-1].ID
		}
	}
	enc := seq.Encode()
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeDepSeq(enc[:n]); err == nil {
			t.Fatalf("request truncation at %d of %d bytes decoded successfully", n, len(enc))
		}
	}
	var resp DepSeqResponse
	for head := byte(0); head <= seqRespBits; head++ {
		if head&^seqRespBits == 0 {
			resp.Resps = append(resp.Resps, seqResponseWithHead(r, head))
		}
	}
	encR := resp.Encode()
	for n := 0; n < len(encR); n++ {
		if _, err := decodeDepSeqResponse(encR[:n]); err == nil {
			t.Fatalf("response truncation at %d of %d bytes decoded successfully", n, len(encR))
		}
	}

	one, oneResp := sweepSeq()
	req1 := (&DepSeq{Reqs: one.Reqs[:1]}).Encode()
	resp1 := (&DepSeqResponse{Resps: oneResp.Resps[:1]}).Encode()
	for bit := 0; bit < 8; bit++ {
		if !validReqHead(1 << bit) {
			bad := append([]byte(nil), req1...)
			bad[1] |= 1 << bit
			if _, err := DecodeDepSeq(bad); err == nil || !strings.Contains(err.Error(), "undefined DEPSEQ request bits") {
				t.Fatalf("request head bit %d: err %v", bit, err)
			}
		}
		if seqRespBits&(1<<bit) == 0 {
			bad := append([]byte(nil), resp1...)
			bad[1] |= 1 << bit
			if _, err := decodeDepSeqResponse(bad); err == nil || !strings.Contains(err.Error(), "undefined DEPSEQ response bits") {
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
	dirty := DepRequest{ID: 99, Static: true, Async: true, Class: "Stale", Kind: 7, Member: "old", Args: []Value{{Kind: KInt, Int: 1}}}
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
	dirtyResp := DepResponse{Err: "stale", AsyncErr: "late", Moved: true, NewHome: 3}
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
	ping, _ := pingExchange()
	f.Add(ping.Encode())
	batch := DepRequest{ID: 5, Kind: 8, Member: "tick:(I)V", Args: []Value{{Kind: KInt, Int: 1}}}
	f.Add((&DepSeq{Reqs: []DepRequest{batch, batch, batch}}).Encode())
	batch.Async = true
	f.Add((&DepSeq{Reqs: []DepRequest{batch, batch}}).Encode())
	f.Add(Lead([]DepRequest{batch, batch}, ping.Encode()))
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
	_, pong := pingExchange()
	f.Add(pong.Encode())
	f.Add((&DepResponse{Value: Value{Kind: KInt, Int: 129}}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeDepSeqResponse(data)
		if err != nil {
			return
		}
		got, err := decodeDepSeqResponse(m.Encode())
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

// TestDepResponseDecodeIntoReusesPatches: DecodeDepResponseInto decodes
// a reply's patch list into the caller's recycled list, overwriting
// every field of a recycled patch, and allocates nothing for it.
func TestDepResponseDecodeIntoReusesPatches(t *testing.T) {
	stale := InvalidateRequest{ID: 99, Ver: 9, Slot: 9, Update: true, Value: Value{Kind: KStr, Str: "stale"}}
	m := DepResponse{Patches: []InvalidateRequest{stale, stale, stale}}
	backing := &m.Patches[0]
	for _, want := range []DepResponse{
		{Value: Value{Kind: KInt, Int: 1}, Patches: []InvalidateRequest{
			{ID: 5, Ver: 2, Slot: 1, Update: true, Value: Value{Kind: KInt, Int: 7}},
			{ID: 5, Ver: 3, Slot: 0},
		}},
		{Value: Value{Kind: KInt, Int: 2}, Patches: []InvalidateRequest{{ID: 6, Ver: 1, Slot: 2}}},
		{Value: Value{Kind: KInt, Int: 3}},
	} {
		if err := DecodeDepResponseInto(want.Encode(), &m); err != nil {
			t.Fatal(err)
		}
		if !depResponseEq(m, want) {
			t.Fatalf("decoded %+v, want %+v", m, want)
		}
		if cap(m.Patches) != 3 || &m.Patches[:1][0] != backing {
			t.Fatal("decode reallocated the patch list")
		}
	}
	enc := (&DepResponse{Patches: []InvalidateRequest{{ID: 6, Ver: 1, Slot: 2}, {ID: 6, Ver: 2, Slot: 3}}}).Encode()
	if allocs := testing.AllocsPerRun(100, func() { _ = DecodeDepResponseInto(enc, &m) }); allocs != 0 {
		t.Errorf("DecodeDepResponseInto into a sized patch list: %.1f allocs, want 0", allocs)
	}
}
