package wire

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestCoherenceMessageRoundTrips is the property test for the
// replication protocol bodies: random REPLICATE/INVALIDATE/REPLICA-ACK
// frames must survive encode/decode bit-for-bit.
func TestCoherenceMessageRoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ids := []int64{0, 1, -1, 1 << 40, -(1 << 40)}
	for i := 0; i < 300; i++ {
		rr := ReplicateRequest{ID: ids[r.Intn(len(ids))]}
		gotRR, err := DecodeReplicateRequest(rr.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if gotRR != rr {
			t.Fatalf("ReplicateRequest mismatch: %+v vs %+v", gotRR, rr)
		}

		fields := make([]Value, r.Intn(4))
		for j := range fields {
			fields[j] = randValue(r, 2)
		}
		resp := ReplicateResponse{
			Class: "Directory", Fields: fields, Ver: uint16(r.Intn(1 << 16)),
			Denied: i%3 == 0, Busy: i%5 == 0, Err: "", Moved: i%2 == 0, NewHome: r.Intn(16),
		}
		gotResp, err := DecodeReplicateResponse(resp.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if gotResp.Class != resp.Class || gotResp.Ver != resp.Ver || gotResp.Denied != resp.Denied ||
			gotResp.Busy != resp.Busy ||
			gotResp.Moved != resp.Moved || gotResp.NewHome != resp.NewHome ||
			len(gotResp.Fields) != len(resp.Fields) {
			t.Fatalf("ReplicateResponse mismatch: %+v vs %+v", gotResp, resp)
		}
		for j := range fields {
			if !reflect.DeepEqual(normalize(gotResp.Fields[j]), normalize(fields[j])) {
				t.Fatalf("ReplicateResponse field %d mismatch: %+v vs %+v",
					j, gotResp.Fields[j], fields[j])
			}
		}

		ir := InvalidateRequest{ID: ids[r.Intn(len(ids))], Ver: uint16(r.Intn(1 << 16)), Slot: r.Intn(300)}
		if i%2 == 0 {
			ir.Update, ir.Slot, ir.Value = true, r.Intn(300), randValue(r, 1)
		}
		gotIR, err := DecodeInvalidateRequest(ir.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !sameInvalidate(gotIR, ir) {
			t.Fatalf("InvalidateRequest mismatch: %+v vs %+v", gotIR, ir)
		}

		ack := ReplicaAck{Kept: i%3 == 0, Err: []string{"", "boom", "节点"}[r.Intn(3)]}
		gotAck, err := DecodeReplicaAck(ack.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if gotAck != ack {
			t.Fatalf("ReplicaAck mismatch: %+v vs %+v", gotAck, ack)
		}
	}
}

// TestAffinityEdgeReadWriteSplitRoundTrips pins the extended affinity
// report: the read/write split must survive alongside the totals.
func TestAffinityEdgeReadWriteSplitRoundTrips(t *testing.T) {
	rep := AffinityReport{
		Owned: []OwnedObject{{ID: 4, Class: "Dir"}},
		Edges: []AffinityEdge{{ID: 4, Msgs: 12, Bytes: 512, Reads: 10, Writes: 2}},
	}
	got, err := DecodeAffinityReport(rep.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("read/write split lost: %+v vs %+v", got, rep)
	}
}

// TestTransferRequestCarriesReaders pins the atomic replica-set handoff
// on migration: the reader set and the write counter travel together.
func TestTransferRequestCarriesReaders(t *testing.T) {
	tr := TransferRequest{ID: 9, Class: "Dir", Fields: []Value{{Kind: KInt, Int: 3}}, Readers: []int{1, 3}, Ver: 0xfffe}
	enc := tr.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeTransferRequest(enc[:cut]); err == nil {
			t.Fatalf("TransferRequest truncation at %d not detected", cut)
		}
	}
	got, err := DecodeTransferRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != tr.ID || got.Class != tr.Class || got.Ver != tr.Ver || !reflect.DeepEqual(got.Readers, tr.Readers) {
		t.Fatalf("TransferRequest readers lost: %+v vs %+v", got, tr)
	}
}

// TestCoherenceTruncationFailsCleanly mirrors the codec-wide truncation
// property for the new frames.
func TestCoherenceTruncationFailsCleanly(t *testing.T) {
	resp := ReplicateResponse{Class: "C", Fields: []Value{{Kind: KStr, Str: "abc"}}, Ver: 9, Moved: true, NewHome: 2}
	enc := resp.Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeReplicateResponse(enc[:cut]); err == nil {
			t.Fatalf("ReplicateResponse truncation at %d not detected", cut)
		}
	}
	irs := []InvalidateRequest{{ID: 1 << 40, Ver: 7, Slot: 300}}
	for _, v := range valueKinds {
		irs = append(irs, InvalidateRequest{ID: 1 << 40, Ver: 7, Update: true, Slot: 300, Value: v})
	}
	for _, ir := range irs {
		enc := ir.Encode()
		for cut := 0; cut < len(enc); cut++ {
			if _, err := DecodeInvalidateRequest(enc[:cut]); err == nil {
				t.Fatalf("InvalidateRequest %+v truncation at %d of %d not detected", ir, cut, len(enc))
			}
		}
	}
	enc = (&ReplicaAck{Kept: true, Err: "boom"}).Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeReplicaAck(enc[:cut]); err == nil {
			t.Fatalf("ReplicaAck truncation at %d not detected", cut)
		}
	}
}

// valueKinds holds one Value of every kind, each with a payload that
// takes more than one byte to encode.
var valueKinds = []Value{
	{Kind: KNull},
	{Kind: KInt, Int: -1 << 20},
	{Kind: KFloat, Float: 2.5},
	{Kind: KStr, Str: "héllo"},
	{Kind: KObj, Node: 3, ID: 1 << 33, Class: "Table"},
	{Kind: KArr, Elem: "I", Arr: []Value{{Kind: KInt, Int: 7}, {Kind: KNull}}},
}

// sameInvalidate compares two InvalidateRequests, values by their
// encoded fields.
func sameInvalidate(a, b InvalidateRequest) bool {
	return a.ID == b.ID && a.Ver == b.Ver && a.Update == b.Update && a.Slot == b.Slot &&
		reflect.DeepEqual(normalize(a.Value), normalize(b.Value))
}

// TestInvalidateHeadSubsetsRoundTrip covers every subset of the flag
// bits an INVALIDATE's tag defines — a drop and an update — with every
// Value kind in the update and a slot that takes three bytes.
func TestInvalidateHeadSubsetsRoundTrip(t *testing.T) {
	for head := 0; head <= invBits; head++ {
		for _, v := range valueKinds {
			ir := InvalidateRequest{ID: -(1 << 35), Ver: 0x8001, Slot: 1 << 20}
			if head&invUpdate != 0 {
				ir.Update, ir.Value = true, v
			}
			enc := ir.Encode()
			if got := enc[0] & (1<<patchBits - 1); got != byte(head) {
				t.Fatalf("%+v: flags %#x, want %#x", ir, got, head)
			}
			got, err := DecodeInvalidateRequest(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !sameInvalidate(got, ir) {
				t.Fatalf("InvalidateRequest mismatch: %+v vs %+v", got, ir)
			}
		}
	}
}

// TestCoherenceUndefinedBitsRejected: a flag bit neither side defines
// is a clean decode error, never a silently ignored field. In an
// INVALIDATE that is the more bit of its tag: the frame carries one
// patch. (The tag's bits above the flags are the slot.)
func TestCoherenceUndefinedBitsRejected(t *testing.T) {
	ir := (&InvalidateRequest{ID: 1, Update: true, Slot: 1, Value: Value{Kind: KInt, Int: 1}}).Encode()
	ack := (&ReplicaAck{Kept: true, Err: "x"}).Encode()
	for bit := 0; bit < 8; bit++ {
		if b := byte(1) << bit; bit < patchBits && b&invBits == 0 {
			enc := append([]byte(nil), ir...)
			enc[0] |= b
			if _, err := DecodeInvalidateRequest(enc); err == nil {
				t.Errorf("INVALIDATE head bit %#x accepted", b)
			}
		}
		if b := byte(1) << bit; b&ackBits == 0 {
			enc := append([]byte(nil), ack...)
			enc[0] |= b
			if _, err := DecodeReplicaAck(enc); err == nil {
				t.Errorf("REPLICA-ACK head bit %#x accepted", b)
			}
		}
	}
}

// TestReplicaAckKeptRoundTrip covers every Kept/Err combination.
func TestReplicaAckKeptRoundTrip(t *testing.T) {
	for _, kept := range []bool{false, true} {
		for _, msg := range []string{"", "boom"} {
			ack := ReplicaAck{Kept: kept, Err: msg}
			got, err := DecodeReplicaAck(ack.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if got != ack {
				t.Fatalf("ReplicaAck mismatch: %+v vs %+v", got, ack)
			}
		}
	}
}

// TestInvalidatePatchSize pins the bytes a kv_mix-shaped write costs:
// an int in [1024, 2047] stored in field slot 1–4 of object 1 travels
// as tag, id, the two-byte write counter, kind and a two-byte varint —
// 7 bytes, against the 4 of a drop and the full snapshot a drop's
// refetch returns. The acknowledgement is its head byte alone. Carried
// on a reply the same patch costs the same 7 bytes, and the reply entry
// nothing more: its head byte has room for the flag.
func TestInvalidatePatchSize(t *testing.T) {
	for slot := 1; slot <= 4; slot++ {
		for _, val := range []int64{1024, 2047} {
			ir := InvalidateRequest{ID: 1, Ver: 0xffff, Update: true, Slot: slot, Value: Value{Kind: KInt, Int: val}}
			if n := len(ir.Encode()); n != 7 {
				t.Errorf("patch of slot %d to %d: %d bytes, want 7", slot, val, n)
			}
			bare, carried := DepResponse{}, DepResponse{Patches: []InvalidateRequest{ir}}
			if n := len(carried.Encode()) - len(bare.Encode()); n != 7 {
				t.Errorf("patch of slot %d to %d carried on a reply: %d bytes more, want 7", slot, val, n)
			}
		}
	}
	if n := len((&InvalidateRequest{ID: 1, Slot: 4}).Encode()); n != 4 {
		t.Errorf("dropping INVALIDATE: %d bytes, want 4", n)
	}
	for _, kept := range []bool{false, true} {
		if n := len((&ReplicaAck{Kept: kept}).Encode()); n != 1 {
			t.Errorf("ReplicaAck{Kept: %v}: %d bytes, want 1", kept, n)
		}
	}
}

func FuzzDecodeReplicateRequest(f *testing.F) {
	f.Add((&ReplicateRequest{ID: 77}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeReplicateRequest(data)
		if err != nil {
			return
		}
		got, err := DecodeReplicateRequest(m.Encode())
		if err != nil || got != m {
			t.Fatalf("re-decode mismatch: %+v vs %+v (%v)", got, m, err)
		}
	})
}

func FuzzDecodeReplicateResponse(f *testing.F) {
	f.Add((&ReplicateResponse{Class: "C", Fields: []Value{{Kind: KInt, Int: 5}}, NewHome: 1}).Encode())
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeReplicateResponse(data)
		if err != nil {
			return
		}
		got, err := DecodeReplicateResponse(m.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if got.Class != m.Class || got.Denied != m.Denied || got.Busy != m.Busy ||
			got.Moved != m.Moved || got.NewHome != m.NewHome || len(got.Fields) != len(m.Fields) {
			t.Fatalf("re-decode mismatch: %+v vs %+v", got, m)
		}
	})
}

func FuzzDecodeInvalidateRequest(f *testing.F) {
	f.Add((&InvalidateRequest{ID: -3}).Encode())
	f.Add((&InvalidateRequest{ID: 1, Update: true, Slot: 2, Value: Value{Kind: KInt, Int: 1500}}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeInvalidateRequest(data)
		if err != nil {
			return
		}
		got, err := DecodeInvalidateRequest(m.Encode())
		if err != nil || !sameInvalidate(got, m) {
			t.Fatalf("re-decode mismatch: %+v vs %+v (%v)", got, m, err)
		}
	})
}

func FuzzDecodeReplicaAck(f *testing.F) {
	f.Add((&ReplicaAck{Err: "x"}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeReplicaAck(data)
		if err != nil {
			return
		}
		got, err := DecodeReplicaAck(m.Encode())
		if err != nil || got != m {
			t.Fatalf("re-decode mismatch: %+v vs %+v (%v)", got, m, err)
		}
	})
}
