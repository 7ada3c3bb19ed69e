package wire

import (
	"reflect"
	"testing"
)

// TestMembershipMessageRoundTrip: encode→decode is the identity for
// every membership handshake payload, including empty and multi-entry
// slices.
func TestMembershipMessageRoundTrip(t *testing.T) {
	joins := []JoinRequest{
		{},
		{Addr: "127.0.0.1:9000", Digest: 0xDEADBEEF, Speed: 1.5},
	}
	for _, m := range joins {
		got, err := DecodeJoinRequest(m.Encode())
		if err != nil || got != m {
			t.Fatalf("join round trip: %+v vs %+v (%v)", got, m, err)
		}
	}
	welcomes := []Welcome{
		{Accept: false, Reason: "digest mismatch"},
		{Accept: true, ViewID: 3, Size: 5, Epoch: 42},
		{Accept: true, ViewID: 9, Size: 4, Departed: []int{2, 3}, Epoch: -1,
			IDs: []int64{10, 20, 30}, Homes: []int{0, 1, 0}},
	}
	for _, m := range welcomes {
		got, err := DecodeWelcome(m.Encode())
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("welcome round trip: %+v vs %+v (%v)", got, m, err)
		}
	}
	leaves := []LeaveRequest{{}, {Reason: "drain"}}
	for _, m := range leaves {
		got, err := DecodeLeaveRequest(m.Encode())
		if err != nil || got != m {
			t.Fatalf("leave round trip: %+v vs %+v (%v)", got, m, err)
		}
	}
	responses := []LeaveResponse{
		{},
		{IDs: []int64{7, 8}, Homes: []int{1, 2}},
		{Kept: 3, Err: "objects hold arrays"},
	}
	for _, m := range responses {
		got, err := DecodeLeaveResponse(m.Encode())
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("leave response round trip: %+v vs %+v (%v)", got, m, err)
		}
	}
}

func FuzzDecodeJoinRequest(f *testing.F) {
	f.Add((&JoinRequest{Addr: "a:1", Digest: 9, Speed: 2}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeJoinRequest(data)
		if err != nil {
			return
		}
		got, err := DecodeJoinRequest(m.Encode())
		if err != nil || got != m {
			t.Fatalf("round trip after decode: %+v vs %+v (%v)", got, m, err)
		}
	})
}

func FuzzDecodeWelcome(f *testing.F) {
	f.Add((&Welcome{Accept: true, ViewID: 2, Size: 3, Departed: []int{1}, IDs: []int64{5}, Homes: []int{0}}).Encode())
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeWelcome(data)
		if err != nil {
			return
		}
		got, err := DecodeWelcome(m.Encode())
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip after decode: %+v vs %+v (%v)", got, m, err)
		}
	})
}

func FuzzDecodeLeaveResponse(f *testing.F) {
	f.Add((&LeaveResponse{IDs: []int64{1, 2}, Homes: []int{1, 0}, Kept: 1, Err: "x"}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeLeaveResponse(data)
		if err != nil {
			return
		}
		got, err := DecodeLeaveResponse(m.Encode())
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip after decode: %+v vs %+v (%v)", got, m, err)
		}
	})
}
