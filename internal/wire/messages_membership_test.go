package wire

import (
	"reflect"
	"testing"
)

// coordWelcomes covers every shape of the ownership delta: a refusal, a
// join (view, no homes), a drain (view with departures plus homes), a
// recovery on a static cluster (dead rank and homes, no view) and one
// with everything present.
var coordWelcomes = []Welcome{
	{Accept: false, Reason: "digest mismatch"},
	{Accept: true, ViewID: 3, Size: 5},
	{Accept: true, ViewID: 9, Size: 4, Departed: []int{2, 3}, Homes: []Home{{10, 0}, {20, 1}, {30, 0}}},
	{Dead: 2, Homes: []Home{{-7, 0}, {1 << 40, 3}}},
	{Dead: 1},
	{Accept: true, Reason: "r", ViewID: 1 << 50, Size: 64, Departed: []int{1}, Dead: 5, Homes: []Home{{4, 2}}},
}

// coordReplies covers every shape of the coordination reply: the plain
// acknowledgement, a skipped migration, promoted homes, a drain that
// moved some objects and kept others, a refusal, and all three at once.
var coordReplies = []Reply{
	{},
	{Kept: 1},
	{Homes: []Home{{4, 1}, {9, 1}}},
	{Homes: []Home{{7, 1}, {8, 2}}, Kept: 3},
	{Err: "stale view"},
	{Homes: []Home{{-7, 0}, {1 << 40, 3}}, Kept: 1 << 20, Err: "objects hold arrays"},
}

// TestMembershipMessageRoundTrip: encode→decode is the identity for
// every coordinator payload, including empty and multi-entry slices,
// and every strict prefix of an encoding is a decode error.
func TestMembershipMessageRoundTrip(t *testing.T) {
	check := func(name string, enc []byte, dec func([]byte) (any, error), want any) {
		t.Helper()
		got, err := dec(enc)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip: %+v vs %+v (%v)", name, got, want, err)
		}
		for cut := range enc {
			if _, err := dec(enc[:cut]); err == nil {
				t.Fatalf("%s %+v: prefix of %d/%d bytes decoded without error", name, want, cut, len(enc))
			}
		}
	}
	for _, m := range []JoinRequest{{}, {Addr: "127.0.0.1:9000", Digest: 0xDEADBEEF, Speed: 1.5}} {
		check("join", m.Encode(), func(b []byte) (any, error) { return DecodeJoinRequest(b) }, m)
	}
	for _, m := range coordWelcomes {
		check("welcome", m.Encode(), func(b []byte) (any, error) { return DecodeWelcome(b) }, m)
	}
	for _, m := range []LeaveRequest{{}, {Reason: "drain"}} {
		check("leave", m.Encode(), func(b []byte) (any, error) { return DecodeLeaveRequest(b) }, m)
	}
	for _, m := range []PromoteRequest{{Dead: 1}, {Dead: 3, Promoted: []int64{-2, 5, 1 << 33}}} {
		check("promote", m.Encode(), func(b []byte) (any, error) { return DecodePromoteRequest(b) }, m)
	}
	for _, m := range coordReplies {
		check("reply", m.Encode(), func(b []byte) (any, error) { return DecodeReply(b) }, m)
	}
}

// TestWelcomeOmitsAbsentParts pins the delta's size discipline: a
// recovery delta carries no view fields, and an undefined head bit is a
// decode error.
func TestWelcomeOmitsAbsentParts(t *testing.T) {
	if got := (&Welcome{Dead: 1}).Encode(); len(got) != 4 {
		t.Errorf("recovery delta with no homes is %d bytes (%x), want 4: head, reason, dead, homes", len(got), got)
	}
	if _, err := DecodeWelcome([]byte{0x08, 0, 0}); err == nil {
		t.Error("undefined welcome head bit decoded without error")
	}
}

// TestReplyOmitsAbsentFields pins the reply's size discipline: the
// plain acknowledgement is the head byte alone, a skipped migration
// adds one byte, and an undefined head bit is a decode error.
func TestReplyOmitsAbsentFields(t *testing.T) {
	if got := (&Reply{}).Encode(); len(got) != 1 {
		t.Errorf("empty reply is %d bytes (%x), want 1", len(got), got)
	}
	if got := (&Reply{Kept: 1}).Encode(); len(got) != 2 {
		t.Errorf("{Kept: 1} is %d bytes (%x), want 2", len(got), got)
	}
	for _, head := range []byte{0x08, 0x80} {
		if _, err := DecodeReply([]byte{head}); err == nil {
			t.Errorf("undefined reply head bit %#x decoded without error", head)
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
	f.Add((&Welcome{Accept: true, ViewID: 2, Size: 3, Departed: []int{1}, Homes: []Home{{5, 0}}}).Encode())
	f.Add([]byte{1})
	for _, m := range coordWelcomes {
		f.Add(m.Encode())
	}
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

func FuzzDecodeReply(f *testing.F) {
	f.Add((&Reply{Homes: []Home{{1, 1}, {2, 0}}, Kept: 1, Err: "x"}).Encode())
	f.Add([]byte{})
	f.Add((&PromoteRequest{Dead: 2, Promoted: []int64{3, 4}}).Encode())
	for _, m := range coordReplies {
		f.Add(m.Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeReply(data)
		if err != nil {
			return
		}
		got, err := DecodeReply(m.Encode())
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip after decode: %+v vs %+v (%v)", got, m, err)
		}
	})
}
