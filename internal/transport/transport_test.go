package transport

import (
	"bytes"

	"fmt"
	"sync"
	"testing"
	"time"

	"autodist/internal/wire"
)

func testFabric(t *testing.T, eps []Endpoint) {
	t.Helper()
	n := len(eps)

	// Ping-pong between 0 and every other node.
	var wg sync.WaitGroup
	for peer := 1; peer < n; peer++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			msg, err := eps[p].Recv()
			if err != nil {
				t.Errorf("node %d recv: %v", p, err)
				return
			}
			if msg.From != 0 || string(msg.Payload) != fmt.Sprintf("ping %d", p) {
				t.Errorf("node %d got %+v", p, msg)
			}
			err = eps[p].Send(Message{To: 0, Tag: msg.Tag, Payload: []byte("pong")})
			if err != nil {
				t.Errorf("node %d send: %v", p, err)
			}
		}(peer)
	}
	for peer := 1; peer < n; peer++ {
		if err := eps[0].Send(Message{To: peer, Tag: uint64(peer), Payload: []byte(fmt.Sprintf("ping %d", peer))}); err != nil {
			t.Fatalf("send to %d: %v", peer, err)
		}
	}
	got := map[uint64]bool{}
	for peer := 1; peer < n; peer++ {
		msg, err := eps[0].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(msg.Payload) != "pong" {
			t.Errorf("unexpected payload %q", msg.Payload)
		}
		got[msg.Tag] = true
	}
	if len(got) != n-1 {
		t.Errorf("got %d distinct pongs, want %d", len(got), n-1)
	}
	wg.Wait()
	for _, ep := range eps {
		_ = ep.Close()
	}
}

func TestInProcFabric(t *testing.T) {
	testFabric(t, NewInProc(4))
}

func TestTCPFabric(t *testing.T) {
	eps, err := NewTCPCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	testFabric(t, eps)
}

func TestInProcOrderPreservedPerPair(t *testing.T) {
	eps := NewInProc(2)
	const n = 100
	for i := 0; i < n; i++ {
		if err := eps[0].Send(Message{To: 1, Tag: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		msg, err := eps[1].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Tag != uint64(i) {
			t.Fatalf("message %d arrived out of order (tag %d)", i, msg.Tag)
		}
	}
}

func TestRecvAfterCloseReturnsError(t *testing.T) {
	eps := NewInProc(2)
	done := make(chan error, 1)
	go func() {
		_, err := eps[1].Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = eps[1].Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestTCPRecvAfterClose(t *testing.T) {
	eps, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := eps[1].Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = eps[1].Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	_ = eps[0].Close()
}

func TestConcurrentSendAndCloseNoPanic(t *testing.T) {
	// Regression: a peer may Close between Send's closed check and the
	// channel send; this must surface as an error, never a panic —
	// including for senders already blocked on a full inbox.
	for iter := 0; iter < 50; iter++ {
		eps := NewInProc(2)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for s := 0; s < 8; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 300; i++ {
					if err := eps[0].Send(Message{To: 1, Tag: uint64(i)}); err != nil {
						return // peer closed — expected
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_ = eps[1].Close()
		}()
		close(start)
		wg.Wait()
		_ = eps[0].Close()
	}
}

func TestSendBlockedOnFullInboxUnblocksOnClose(t *testing.T) {
	eps := NewInProc(2)
	// Fill the peer inbox to capacity without draining it.
	for i := 0; ; i++ {
		blocked := make(chan error, 1)
		go func() {
			blocked <- eps[0].Send(Message{To: 1})
		}()
		select {
		case err := <-blocked:
			if err != nil {
				t.Fatalf("send %d failed early: %v", i, err)
			}
		case <-time.After(20 * time.Millisecond):
			// Sender is now blocked on the full inbox; Close must
			// unblock it with an error rather than a panic.
			_ = eps[1].Close()
			select {
			case err := <-blocked:
				if err == nil {
					t.Error("blocked send reported success after Close")
				}
			case <-time.After(2 * time.Second):
				t.Fatal("blocked send did not unblock on Close")
			}
			return
		}
		if i > 5000 {
			t.Fatal("inbox never filled")
		}
	}
}

func TestBadDestinationRejected(t *testing.T) {
	eps := NewInProc(2)
	if err := eps[0].Send(Message{To: 7}); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if err := eps[0].Send(Message{To: -1}); err == nil {
		t.Error("negative destination accepted")
	}
}

func TestTimestampAndKindRoundTrip(t *testing.T) {
	eps, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer eps[0].Close()
	defer eps[1].Close()
	want := Message{To: 1, Tag: 42, TID: 1 << 40, Kind: 7, Time: 1.25, Payload: []byte{1, 2, 3}}
	if err := eps[0].Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := eps[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != 42 || got.TID != 1<<40 || got.Kind != 7 || got.Time != 1.25 || got.From != 0 {
		t.Errorf("round trip lost fields: %+v", got)
	}
}

// TestTCPConcurrentSendersDistinctPeers exercises the dial-outside-lock
// path: many goroutines send first messages to different peers at
// once (racing dials to the same peer included); every frame must
// arrive intact exactly once.
func TestTCPConcurrentSendersDistinctPeers(t *testing.T) {
	const n, per = 4, 16
	eps, err := NewTCPCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
	}()
	var wg sync.WaitGroup
	for peer := 1; peer < n; peer++ {
		for i := 0; i < per; i++ {
			wg.Add(1)
			go func(peer, i int) {
				defer wg.Done()
				msg := Message{To: peer, Tag: uint64(i), TID: uint64(peer), Payload: []byte(fmt.Sprintf("m%d-%d", peer, i))}
				if err := eps[0].Send(msg); err != nil {
					t.Errorf("send to %d: %v", peer, err)
				}
			}(peer, i)
		}
	}
	wg.Wait()
	for peer := 1; peer < n; peer++ {
		seen := map[uint64]bool{}
		for i := 0; i < per; i++ {
			msg, err := eps[peer].Recv()
			if err != nil {
				t.Fatal(err)
			}
			if msg.TID != uint64(peer) || string(msg.Payload) != fmt.Sprintf("m%d-%d", peer, msg.Tag) {
				t.Fatalf("node %d got corrupted frame %+v", peer, msg)
			}
			if seen[msg.Tag] {
				t.Fatalf("node %d got duplicate tag %d", peer, msg.Tag)
			}
			seen[msg.Tag] = true
		}
	}
}

// TestFramingAgreesWithWireCodec cross-checks that a payload encoded
// with the runtime's wire codec survives both fabrics byte-for-byte:
// the runtime body codec and the TCP frame envelope share one format
// family and must not corrupt each other.
func TestFramingAgreesWithWireCodec(t *testing.T) {
	req := wire.DepRequest{
		ID: 42, Kind: 1, Member: "bounce:(I)I",
		Args: []wire.Value{
			{Kind: wire.KInt, Int: -7},
			{Kind: wire.KArr, Elem: "I", Arr: []wire.Value{{Kind: wire.KInt, Int: 1}, {Kind: wire.KNull}}},
			{Kind: wire.KObj, Node: 1, ID: 9, Class: "Account"},
		},
	}
	payload := req.Encode()

	fabrics := map[string][]Endpoint{}
	fabrics["inproc"] = NewInProc(2)
	tcp, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	fabrics["tcp"] = tcp

	for name, eps := range fabrics {
		if err := eps[0].Send(Message{To: 1, Tag: 5, Kind: 2, Payload: payload}); err != nil {
			t.Fatalf("%s send: %v", name, err)
		}
		msg, err := eps[1].Recv()
		if err != nil {
			t.Fatalf("%s recv: %v", name, err)
		}
		if !bytes.Equal(msg.Payload, payload) {
			t.Fatalf("%s: payload corrupted in transit", name)
		}
		var seq wire.DepSeq
		if err := wire.DecodeDepSeqInto(msg.Payload, &seq); err != nil || len(seq.Reqs) != 1 {
			t.Fatalf("%s decode: %d entries (%v)", name, len(seq.Reqs), err)
		}
		if got := seq.Reqs[0]; got.ID != req.ID || got.Member != req.Member || len(got.Args) != 3 || got.Args[2].Class != "Account" {
			t.Fatalf("%s: decoded %+v != sent %+v", name, got, req)
		}
		for _, ep := range eps {
			_ = ep.Close()
		}
	}
}

func TestInProcReportsCausalTCPDoesNot(t *testing.T) {
	inproc := NewInProc(2)
	if !Causal(inproc[0]) {
		t.Error("in-process fabric must report causal delivery")
	}
	tcp, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp[0].Close()
	defer tcp[1].Close()
	if Causal(tcp[0]) {
		t.Error("TCP fabric must not report causal delivery")
	}
	for _, ep := range inproc {
		_ = ep.Close()
	}
}
