package transport

import (
	"runtime/debug"
	"testing"
	"time"

	"autodist/internal/wire"
)

// tcpPair builds a connected two-endpoint TCP fabric, with a drain
// goroutine on the receiving side recycling payloads (the runtime's
// contract for copying fabrics).
func tcpPair(t testing.TB, opts TCPOptions) (send, recv Endpoint, stop func()) {
	t.Helper()
	eps, err := NewTCPClusterOpts(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := eps[1].Recv()
			if err != nil {
				return
			}
			wire.PutBuf(m.Payload)
		}
	}()
	return eps[0], eps[1], func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
		<-done
	}
}

// BenchmarkTCPSend measures the steady-state send hot path over a live
// TCP connection. The acceptance bar is 0 allocs/op: encode into a
// pooled buffer, append into the connection batch, recycle — nothing
// per-message reaches the heap.
func BenchmarkTCPSend(b *testing.B) {
	send, _, stop := tcpPair(b, DefaultTCPOptions())
	defer stop()
	payload := make([]byte, 128)
	msg := Message{To: 1, Kind: 7, Tag: 42, TID: 3, Payload: payload}
	// Warm the connection and pools before measuring.
	for i := 0; i < 1000; i++ {
		if err := send.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := send.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTCPSendZeroAlloc is the benchmark's guard in plain-test form so
// `go test` (not just -bench) enforces the zero-allocation criterion.
// GC is disabled during the probe so the pools are not flushed
// mid-measurement.
func TestTCPSendZeroAlloc(t *testing.T) {
	send, _, stop := tcpPair(t, DefaultTCPOptions())
	defer stop()
	payload := make([]byte, 128)
	msg := Message{To: 1, Kind: 7, Tag: 42, TID: 3, Payload: payload}
	fn := func() {
		if err := send.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		fn()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(5000, fn); allocs != 0 {
		t.Errorf("TCP send path allocates %.1f times per op, want 0", allocs)
	}
}

// reliableEcho builds a two-node TCP fabric under the reliability
// layer with node 1 echoing every frame back, and returns one round
// trip from node 0 as a function.
func reliableEcho(t testing.TB) (trip func(), stop func()) {
	t.Helper()
	eps, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range eps {
		eps[i] = NewReliable(eps[i], ReliableOptions{})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := eps[1].Recv()
			if err != nil {
				return
			}
			m.To = 0
			if eps[1].Send(m) != nil {
				return
			}
			wire.PutBuf(m.Payload)
		}
	}()
	msg := Message{To: 1, Kind: 7, Tag: 42, TID: 3, Payload: make([]byte, 128)}
	trip = func() {
		if err := eps[0].Send(msg); err != nil {
			t.Fatal(err)
		}
		m, err := eps[0].Recv()
		if err != nil {
			t.Fatal(err)
		}
		wire.PutBuf(m.Payload)
	}
	return trip, func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
		<-done
	}
}

// BenchmarkReliableRoundTrip measures one request/response exchange
// through the reliability layer over live TCP: two sequenced frames,
// each acknowledged by the other. The bar is 0 allocs/op — the ring's
// master copy comes from the buffer pool and goes back on the ack.
func BenchmarkReliableRoundTrip(b *testing.B) {
	trip, stop := reliableEcho(b)
	defer stop()
	for i := 0; i < 1000; i++ {
		trip()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
}

// TestReliableRoundTripZeroAlloc pins the steady-state allocation
// count of Send+Recv through the reliability layer — both nodes, every
// goroutine, since AllocsPerRun counts the whole process.
func TestReliableRoundTripZeroAlloc(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	recycle := func() {
		for i := 0; i < 16; i++ {
			wire.PutBuf(wire.GetBuf())
		}
	}
	if testing.AllocsPerRun(100, recycle) != 0 {
		t.Skip("sync.Pool drops buffers at random in this build (race detector): the pool itself allocates")
	}
	trip, stop := reliableEcho(t)
	defer stop()
	for i := 0; i < 2000; i++ {
		trip()
	}
	if allocs := testing.AllocsPerRun(5000, trip); allocs != 0 {
		t.Errorf("reliable round trip allocates %.1f times per op, want 0", allocs)
	}
}

// TestTCPCloseWithFullInbox is the regression test for the read-loop
// shutdown deadlock: with the receiving endpoint's inbox full and no
// consumer, the read loop is blocked delivering — Close must still
// return promptly instead of waiting on a lock the read loop holds
// (the old closeMu design deadlocked exactly there).
func TestTCPCloseWithFullInbox(t *testing.T) {
	eps, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer eps[0].Close()
	// Overfill node 1's inbox (capacity 1024) and give the read loop
	// time to wedge on the blocking inbox send.
	for i := 0; i < 1500; i++ {
		if err := eps[0].Send(Message{To: 1, Tag: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- eps[1].Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked with a full inbox")
	}
}

// TestTCPCompressedFabric exercises the negotiated-compression mode
// end to end: both endpoints opt in, the dialler writes the segment
// preamble, and messages of every size class round-trip intact.
func TestTCPCompressedFabric(t *testing.T) {
	opts := DefaultTCPOptions()
	opts.Compress = true
	opts.CompressMin = 1 // compress even tiny batches
	eps, err := NewTCPClusterOpts(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
	}()
	payloads := [][]byte{
		nil,
		[]byte("x"),
		bytes1k(),
		make([]byte, 64<<10), // highly compressible
	}
	for i, p := range payloads {
		if err := eps[0].Send(Message{To: 1, Tag: uint64(i), Kind: 5, Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		m, err := eps[1].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Tag != uint64(i) || len(m.Payload) != len(p) {
			t.Fatalf("message %d: got tag %d len %d, want tag %d len %d",
				i, m.Tag, len(m.Payload), i, len(p))
		}
		for j := range m.Payload {
			if m.Payload[j] != p[j] {
				t.Fatalf("message %d: payload corrupted at byte %d", i, j)
			}
		}
		wire.PutBuf(m.Payload)
	}
}

func bytes1k() []byte {
	b := make([]byte, 1024)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}

// TestTCPUncoalescedFabric runs the full fabric exchange with the
// write combiner off — the legacy one-Write-per-frame path must stay
// fully functional (it is the A/B baseline).
func TestTCPUncoalescedFabric(t *testing.T) {
	eps, err := NewTCPClusterOpts(3, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	testFabric(t, eps)
}

// TestTCPFlushBarrier checks that Flush returns only after previously
// enqueued frames reached the socket: a receiver that drains after
// Flush must observe every frame without the sender's help.
func TestTCPFlushBarrier(t *testing.T) {
	eps, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			_ = ep.Close()
		}
	}()
	const n = 200
	for i := 0; i < n; i++ {
		if err := eps[0].Send(Message{To: 1, Tag: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := Flush(eps[0]); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < n; i++ {
		m, err := eps[1].Recv()
		if err != nil {
			t.Fatalf("recv %d after flush: %v", i, err)
		}
		if m.Tag != uint64(i) {
			t.Fatalf("frame %d arrived out of order (tag %d)", i, m.Tag)
		}
		wire.PutBuf(m.Payload)
	}
}
