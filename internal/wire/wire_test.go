package wire

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randValue builds a random Value tree, biased toward nesting while
// depth remains, covering nulls, extreme ints/floats and empty strings.
func randValue(r *rand.Rand, depth int) Value {
	kinds := []uint8{KNull, KInt, KFloat, KStr, KObj}
	if depth > 0 {
		kinds = append(kinds, KArr, KArr) // favour nesting
	}
	switch kinds[r.Intn(len(kinds))] {
	case KNull:
		return Value{Kind: KNull}
	case KInt:
		picks := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, r.Int63() - r.Int63()}
		return Value{Kind: KInt, Int: picks[r.Intn(len(picks))]}
	case KFloat:
		picks := []float64{0, -0.0, 1.5, math.Inf(1), math.SmallestNonzeroFloat64, r.NormFloat64()}
		return Value{Kind: KFloat, Float: picks[r.Intn(len(picks))]}
	case KStr:
		picks := []string{"", "x", "héllo\x00world", string(make([]byte, r.Intn(64)))}
		return Value{Kind: KStr, Str: picks[r.Intn(len(picks))]}
	case KObj:
		return Value{Kind: KObj, Node: r.Intn(16), ID: r.Int63n(1 << 40), Class: "Cls"}
	default:
		n := r.Intn(5)
		arr := make([]Value, n)
		for i := range arr {
			arr[i] = randValue(r, depth-1)
		}
		return Value{Kind: KArr, Elem: "LObject;", Arr: arr}
	}
}

func roundTripValue(t *testing.T, v Value) {
	t.Helper()
	enc := v.Append(nil)
	r := NewReader(enc)
	got := r.Value()
	if r.Err() != nil {
		t.Fatalf("decode error for %+v: %v", v, r.Err())
	}
	if len(r.Rest()) != 0 {
		t.Fatalf("trailing %d bytes after %+v", len(r.Rest()), v)
	}
	if !reflect.DeepEqual(normalize(v), normalize(got)) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", v, got)
	}
}

// normalize maps nil and empty Arr slices to equality and drops fields
// irrelevant to the value's kind, matching what the codec preserves.
func normalize(v Value) Value {
	out := Value{Kind: v.Kind}
	switch v.Kind {
	case KInt:
		out.Int = v.Int
	case KFloat:
		out.Float = v.Float
	case KStr:
		out.Str = v.Str
	case KObj:
		out.Node, out.ID, out.Class = v.Node, v.ID, v.Class
	case KArr:
		out.Elem = v.Elem
		if len(v.Arr) > 0 {
			out.Arr = make([]Value, len(v.Arr))
			for i, e := range v.Arr {
				out.Arr[i] = normalize(e)
			}
		}
	}
	return out
}

func TestValueRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		roundTripValue(t, randValue(r, 4))
	}
}

func TestValueRoundTripNaN(t *testing.T) {
	enc := (&Value{Kind: KFloat, Float: math.NaN()}).Append(nil)
	rd := NewReader(enc)
	got := rd.Value()
	if rd.Err() != nil || !math.IsNaN(got.Float) {
		t.Fatalf("NaN did not survive: %+v err=%v", got, rd.Err())
	}
}

func TestMessageRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	args := func() []Value {
		n := r.Intn(4)
		out := make([]Value, n)
		for i := range out {
			out[i] = randValue(r, 3)
		}
		return out
	}
	for i := 0; i < 300; i++ {
		nr := NewRequest{Class: "Bank", Args: args()}
		got, err := DecodeNewRequest(nr.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != nr.Class || len(got.Args) != len(nr.Args) {
			t.Fatalf("NewRequest mismatch: %+v vs %+v", got, nr)
		}

		nresp := DepResponse{Value: Value{Kind: KInt, Int: r.Int63()}, OutArrays: args(), AsyncErr: "boom"}
		gotR, err := DecodeDepResponse(nresp.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if gotR.Value.Int != nresp.Value.Int || gotR.AsyncErr != "boom" || len(gotR.OutArrays) != len(nresp.OutArrays) {
			t.Fatalf("NEW reply mismatch: %+v vs %+v", gotR, nresp)
		}

		dr := DepRequest{ID: r.Int63(), Static: i%2 == 0, Class: "C", Kind: 1 + r.Intn(8), Member: "m:(I)V", Args: args()}
		gotD, err := DecodeDepSeq(dr.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if len(gotD.Reqs) != 1 || !depRequestEq(gotD.Reqs[0], dr) {
			t.Fatalf("DepRequest mismatch: %+v vs %+v", gotD, dr)
		}

		dresp := DepResponse{Value: randValue(r, 3), OutArrays: args(), Err: "e"}
		gotDR, err := DecodeDepResponse(dresp.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if gotDR.Err != "e" || !reflect.DeepEqual(normalize(gotDR.Value), normalize(dresp.Value)) {
			t.Fatalf("DepResponse mismatch: %+v vs %+v", gotDR, dresp)
		}

		batch := DepSeq{Reqs: []DepRequest{dr, dr, {Member: "n"}}}
		gotB, err := DecodeDepSeq(batch.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if len(gotB.Reqs) != 3 || gotB.Reqs[1].Member != dr.Member || gotB.Reqs[2].ID != 0 {
			t.Fatalf("batch mismatch: %+v vs %+v", gotB, batch)
		}
	}
}

func TestFrameStreamRoundTrip(t *testing.T) {
	frames := []Frame{
		{From: 0, To: 1, Tag: 7, Kind: 2, Time: 1.25, Payload: []byte("hello")},
		{From: 3, To: 0, Tag: 1 << 40, Kind: 0, Time: 0},
		{From: 1, To: 2, Tag: 0, Kind: 255, Time: -3.5, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	var stream []byte
	for i := range frames {
		stream = AppendFrame(stream, &frames[i])
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	var scratch []byte
	for i := range frames {
		got, s, err := ReadFrameScratch(r, scratch)
		scratch = s
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := frames[i]
		if got.From != want.From || got.To != want.To || got.Tag != want.Tag ||
			got.Kind != want.Kind || got.Time != want.Time || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, got, want)
		}
	}
	if _, _, err := ReadFrameScratch(r, scratch); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

func TestTruncatedInputsFailCleanly(t *testing.T) {
	v := Value{Kind: KArr, Elem: "I", Arr: []Value{{Kind: KInt, Int: 300}, {Kind: KStr, Str: "abc"}}}
	enc := v.Append(nil)
	for cut := 0; cut < len(enc); cut++ {
		r := NewReader(enc[:cut])
		r.Value()
		if r.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	f := Frame{From: 1, To: 0, Tag: 9, Payload: []byte("payload")}
	enc = AppendFrame(nil, &f)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := readFrameBytes(enc[:cut]); err == nil {
			t.Fatalf("frame truncation at %d not detected", cut)
		}
	}
}

func TestCompactness(t *testing.T) {
	// A small dependence request must stay a handful of bytes — the
	// whole point of replacing gob's per-message type descriptions.
	dr := DepRequest{ID: 3, Kind: 3, Member: "savings"}
	if n := len(dr.Encode()); n > 16 {
		t.Fatalf("small DepRequest encodes to %d bytes, want <= 16", n)
	}
}

func TestHugeCollectionCountRejectedWithoutAllocation(t *testing.T) {
	// A corrupted frame can claim a collection of 2^28 elements in a
	// few bytes; the decoder must reject it by bounds-checking against
	// the remaining buffer instead of allocating the slice up front.
	payload := appendUvarint(nil, 1<<28)
	r := NewReader(payload)
	if vs := r.Values(); r.Err() == nil || vs != nil {
		t.Fatalf("huge Values count not rejected: err=%v", r.Err())
	}
	if _, err := DecodeDepSeq(appendUvarint(nil, 1<<27)); err == nil {
		t.Fatal("huge access vector count not rejected")
	}
}

func TestMigrationMessageRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		rep := AffinityReport{
			Owned: []OwnedObject{{ID: r.Int63(), Class: "Cell"}, {ID: r.Int63(), Class: "Bank"}},
			Edges: []AffinityEdge{{ID: r.Int63(), Msgs: int64(r.Intn(1000)), Bytes: int64(r.Intn(1 << 20))}},
		}
		gotRep, err := DecodeAffinityReport(rep.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRep, rep) {
			t.Fatalf("AffinityReport mismatch: %+v vs %+v", gotRep, rep)
		}

		mr := MigrateRequest{ID: r.Int63(), To: r.Intn(16)}
		gotMR, err := DecodeMigrateRequest(mr.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if gotMR != mr {
			t.Fatalf("MigrateRequest mismatch: %+v vs %+v", gotMR, mr)
		}

		tr := TransferRequest{ID: r.Int63(), Class: "Cell", Fields: []Value{randValue(r, 3), randValue(r, 2)}}
		gotTR, err := DecodeTransferRequest(tr.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if gotTR.ID != tr.ID || gotTR.Class != tr.Class || len(gotTR.Fields) != len(tr.Fields) {
			t.Fatalf("TransferRequest mismatch: %+v vs %+v", gotTR, tr)
		}
	}
}

func TestDepResponseMovedNoticeRoundTrips(t *testing.T) {
	m := DepResponse{Value: Value{Kind: KInt, Int: 9}, Moved: true, NewHome: 3}
	got, err := DecodeDepResponse(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Moved || got.NewHome != 3 {
		t.Fatalf("Moved notice lost: %+v", got)
	}
}

func TestEmptyAffinityReportRoundTrips(t *testing.T) {
	var rep AffinityReport
	got, err := DecodeAffinityReport(rep.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Owned) != 0 || len(got.Edges) != 0 {
		t.Fatalf("empty report decoded as %+v", got)
	}
}
