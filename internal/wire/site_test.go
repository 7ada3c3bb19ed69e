package wire

import "testing"

// TestAccessEntryLayouts round-trips both request-entry layouts and pins
// what naming an access by site saves. The by-name layout is exercised
// with the benchmark's wire-codec messages exactly as its micro timings
// build them (a ping request naming class, kind and member, and a
// 4-field read), whose sizes must not move. By site, the runtime's ping
// request shrinks from 20 B to 10 B and its 4-field fused read from 22
// B to 10 B; an async entry leading a vector saves the same 10 B as the
// ping, since its member, tick:(I)V, is as long.
func TestAccessEntryLayouts(t *testing.T) {
	roundTrip := func(name string, seq DepSeq, wantLen int) []byte {
		t.Helper()
		enc := seq.Encode()
		if len(enc) != wantLen {
			t.Errorf("%s: %d B, want %d", name, len(enc), wantLen)
		}
		got, err := DecodeDepSeq(enc)
		if err != nil || len(got.Reqs) != len(seq.Reqs) {
			t.Fatalf("%s: decoded %+v (%v)", name, got, err)
		}
		for i := range seq.Reqs {
			if !depRequestEq(got.Reqs[i], seq.Reqs[i]) {
				t.Errorf("%s entry %d: %+v, want %+v", name, i, got.Reqs[i], seq.Reqs[i])
			}
			if got.Reqs[i].ByName() != seq.Reqs[i].ByName() {
				t.Errorf("%s entry %d: layout changed in the round trip", name, i)
			}
		}
		return enc
	}

	// The benchmark's by-name messages: ID 129, class Sink.
	microPing := DepRequest{ID: 129, Class: "Sink", Kind: 3, Member: "ping(I)I",
		Args: []Value{{Kind: KInt, Int: 1<<20 + 7}}}
	enc := roundTrip("micro ping", DepSeq{Reqs: []DepRequest{microPing}}, 25)
	if enc[1]&(seqReqByName|seqReqClass) != seqReqByName|seqReqClass {
		t.Errorf("micro ping head %#x lacks the by-name and class bits", enc[1])
	}
	var microSweep DepSeq
	for _, f := range []string{"p0", "p1", "p2", "p3"} {
		microSweep.Reqs = append(microSweep.Reqs, DepRequest{ID: 129, Class: "Sink", Kind: 1, Member: f})
	}
	roundTrip("micro 4-field read", microSweep, 43)

	// The runtime's ping, by name as the parent layout sent it and by
	// site.
	ping, _ := pingExchange()
	pingByName := ping
	pingByName.Site, pingByName.Kind, pingByName.Member = 0, 1, "ping:(I)I"
	roundTrip("ping by name", DepSeq{Reqs: []DepRequest{pingByName}}, 20)
	roundTrip("ping by site", DepSeq{Reqs: []DepRequest{ping}}, 10)

	sweep, _ := sweepSeq()
	roundTrip("4-field read by name", sweepByName(), 22)
	roundTrip("4-field read by site", sweep, 10)

	// An async lead entry ahead of the ping: each layout's lead costs
	// what its entry costs, so the site saves 10 B per lead entry.
	tick := DepRequest{ID: 5, Async: true, Site: 9, Args: []Value{{Kind: KInt, Int: 1}}}
	tickByName := tick
	tickByName.Site, tickByName.Kind, tickByName.Member = 0, 8, "tick:(I)V"
	for _, tc := range []struct {
		name string
		lead DepRequest
		want int
	}{{"by name", tickByName, 10 + 16}, {"by site", tick, 10 + 6}} {
		led := Lead([]DepRequest{tc.lead}, ping.Encode())
		if len(led) != tc.want {
			t.Errorf("ping led by one async entry %s: %d B, want %d", tc.name, len(led), tc.want)
		}
		got, err := DecodeDepSeq(led)
		if err != nil || len(got.Reqs) != 2 || !depRequestEq(got.Reqs[0], tc.lead) || !depRequestEq(got.Reqs[1], ping) {
			t.Errorf("ping led %s decodes as %+v (%v)", tc.name, got.Reqs, err)
		}
	}
}
