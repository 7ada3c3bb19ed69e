package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autodist/internal/wire"
)

// fastRel tunes the reliability layer for tests: retransmission heals
// injected faults within milliseconds, while the failure deadline is
// long enough (2ms × 200 misses = 400ms) that no plausible run of
// injected drops can mimic a death.
var fastRel = ReliableOptions{
	HeartbeatInterval: 2 * time.Millisecond,
	HeartbeatMisses:   200,
	RetransmitTimeout: 2 * time.Millisecond,
}

// reliableChaosPair builds a two-node in-process fabric with the chaos
// layer under the reliability layer — the production stacking order.
func reliableChaosPair(t *testing.T, rules ChaosRules) (a, b Endpoint, ctl *Chaos) {
	t.Helper()
	ctl, eps := NewChaos(NewInProc(2), rules)
	a = NewReliable(eps[0], fastRel)
	b = NewReliable(eps[1], fastRel)
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b, ctl
}

// protocolKinds spans the full frame-kind space the runtime sends
// (NEW=1 … DEPSEQ=17); the reliability guarantee is kind-agnostic and
// must hold for every one of them.
const protocolKinds = 17

// streamFrames sends a sequenced stream of frames covering every
// protocol kind from one endpoint and checks at the other that it
// arrives exactly once, in order, payloads intact.
func streamFrames(from, to Endpoint, frames int) error {
	recvErr := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			m, err := to.Recv()
			if err != nil {
				recvErr <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			wantKind := uint8(1 + i%protocolKinds)
			if m.Kind == wire.KindPeerDown {
				recvErr <- fmt.Errorf("spurious PeerDown for node %d after %d frames", m.From, i)
				return
			}
			if m.Tag != uint64(i) {
				recvErr <- fmt.Errorf("frame %d arrived with tag %d: lost, doubled or reordered", i, m.Tag)
				return
			}
			if m.Kind != wantKind {
				recvErr <- fmt.Errorf("frame %d has kind %d, want %d", i, m.Kind, wantKind)
				return
			}
			if want := fmt.Sprintf("payload-%d", i); string(m.Payload) != want {
				recvErr <- fmt.Errorf("frame %d payload %q, want %q", i, m.Payload, want)
				return
			}
		}
		recvErr <- nil
	}()
	for i := 0; i < frames; i++ {
		msg := Message{
			To: to.Rank(), Tag: uint64(i), TID: 3, Kind: uint8(1 + i%protocolKinds),
			Payload: []byte(fmt.Sprintf("payload-%d", i)),
		}
		if err := from.Send(msg); err != nil {
			return fmt.Errorf("send %d: %w", i, err)
		}
	}
	select {
	case err := <-recvErr:
		return err
	case <-time.After(30 * time.Second):
		return errors.New("receiver did not observe all frames: delivery stalled")
	}
}

// requireQuiescent checks the recovery machinery left nothing behind:
// every ring drains (Flush is the ack barrier) and, once the endpoints
// have stopped, no frame is still parked in a reorder buffer.
func requireQuiescent(t *testing.T, eps ...Endpoint) {
	t.Helper()
	for _, ep := range eps {
		if err := Flush(ep); err != nil {
			t.Errorf("node %d: %v", ep.Rank(), err)
		}
	}
	for _, ep := range eps {
		_ = ep.Close()
	}
	for _, ep := range eps {
		for rank, p := range *ep.(*relEndpoint).peers.Load() {
			if len(p.unacked) != 0 || len(p.reorder) != 0 {
				t.Errorf("node %d, peer %d: %d unacked and %d reorder-buffered frames at quiescence",
					ep.Rank(), rank, len(p.unacked), len(p.reorder))
			}
		}
	}
}

// TestReliableExactlyOnceUnderChaos is the transport tentpole test:
// under every chaos profile — single drops, burst drops, duplicates,
// reordering, and all at once — both directions of a link deliver
// their stream exactly once and in order, and the ring and the reorder
// buffer are empty afterwards. Seeded rules make each case's fault
// pattern deterministic.
func TestReliableExactlyOnceUnderChaos(t *testing.T) {
	type chaosCase struct {
		name            string
		rules           ChaosRules
		wantRetransmits bool // dropped frames must have been resent
		wantRecovered   bool // dup/reorder must have been healed on receive
	}
	cases := []chaosCase{
		{"clean", ChaosRules{Seed: 7}, false, false},
		{"single drop", ChaosRules{Seed: 7, Drop: 0.02}, true, false},
		{"burst drop", ChaosRules{Seed: 7, Drop: 0.4}, true, false},
		{"duplicate", ChaosRules{Seed: 7, Dup: 0.3}, false, true},
		{"reorder", ChaosRules{Seed: 7, Reorder: 0.3}, false, true},
		{"mixed", ChaosRules{Seed: 7, Drop: 0.15, Dup: 0.15, Reorder: 0.15}, true, true},
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cases = append(cases, chaosCase{
			name:  fmt.Sprintf("random %d", seed),
			rules: ChaosRules{Seed: seed, Drop: 0.3 * rng.Float64(), Dup: 0.3 * rng.Float64(), Reorder: 0.3 * rng.Float64()},
		})
	}
	const frames = 300
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b, _ := reliableChaosPair(t, tc.rules)
			back := make(chan error, 1)
			go func() { back <- streamFrames(b, a, frames) }()
			if err := streamFrames(a, b, frames); err != nil {
				t.Fatalf("0→1: %v", err)
			}
			if err := <-back; err != nil {
				t.Fatalf("1→0: %v", err)
			}
			sf, _ := Faults(a)
			rf, _ := Faults(b)
			if tc.wantRetransmits && sf.Retransmits == 0 {
				t.Errorf("chaos dropped frames but the sender recorded no retransmits")
			}
			if tc.wantRecovered && rf.Recovered == 0 {
				t.Errorf("chaos duplicated/reordered frames but the receiver recorded no recoveries")
			}
			if sf.PeersDown != 0 || rf.PeersDown != 0 {
				t.Errorf("spurious peer-down verdicts: sender %d, receiver %d", sf.PeersDown, rf.PeersDown)
			}
			requireQuiescent(t, a, b)
		})
	}
}

// lossyEndpoint loses exactly the frames its rule names on their way
// out of one node — the scalpel beside the chaos layer's dice.
type lossyEndpoint struct {
	Endpoint
	lose func(Message) bool
}

func (l *lossyEndpoint) Send(m Message) error {
	if l.lose(m) {
		return nil
	}
	return l.Endpoint.Send(m)
}

// loseTransmissions loses the first n transmissions of the frame with
// the given sequence number.
func loseTransmissions(seq uint64, n int) func(Message) bool {
	var mu sync.Mutex
	return func(m Message) bool {
		mu.Lock()
		defer mu.Unlock()
		if m.Seq != seq || n == 0 {
			return false
		}
		n--
		return true
	}
}

// slowTimers are the options of the recovery-latency tests: a 100ms
// heartbeat and a 1s retransmit timeout, so anything healed within
// milliseconds was healed by the gap or by the measured round trip,
// not by a configured timer.
var slowTimers = ReliableOptions{HeartbeatInterval: 100 * time.Millisecond, RetransmitTimeout: time.Second}

// lossyPair builds a two-node in-process fabric under the reliability
// layer, with each node's outbound frames passing through its rule.
func lossyPair(t *testing.T, loseFrom0, loseFrom1 func(Message) bool) (a, b Endpoint) {
	t.Helper()
	eps := NewInProc(2)
	a = NewReliable(&lossyEndpoint{eps[0], loseFrom0}, slowTimers)
	b = NewReliable(&lossyEndpoint{eps[1], loseFrom1}, slowTimers)
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

func loseNothing(Message) bool { return false }

// healTime streams n frames from a to b and reports how long the frame
// with tag lost took from Send to delivery. Every frame must arrive in
// order.
func healTime(t *testing.T, a, b Endpoint, n int, lost uint64) time.Duration {
	t.Helper()
	var sent time.Time
	arrived := make(chan time.Time, 1)
	recvErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			m, err := b.Recv()
			if err == nil && m.Tag != uint64(i) {
				err = fmt.Errorf("frame %d arrived with tag %d", i, m.Tag)
			}
			if err != nil {
				recvErr <- err
				return
			}
			if m.Tag == lost {
				arrived <- time.Now()
			}
		}
		recvErr <- nil
	}()
	for i := 0; i < n; i++ {
		if uint64(i) == lost {
			sent = time.Now()
		}
		if err := a.Send(Message{To: 1, Tag: uint64(i), Kind: 7, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-recvErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream stalled")
	}
	took := (<-arrived).Sub(sent)
	t.Logf("frame %d healed in %v", lost, took)
	return took
}

// warmLink exchanges n frames from a to b and waits for their acks, so
// the link has a measured round trip.
func warmLink(t *testing.T, a, b Endpoint, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := a.Send(Message{To: 1, Kind: 7}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := Flush(a); err != nil {
		t.Fatal(err)
	}
}

// bestOf runs a latency scenario up to five times and returns the
// fastest run: the bound under test is what the mechanism can do, and
// one descheduled goroutine on a busy host must not fail it.
func bestOf(t *testing.T, bound time.Duration, scenario func(t *testing.T) time.Duration) time.Duration {
	t.Helper()
	best := time.Duration(1<<63 - 1)
	for try := 0; try < 5 && best >= bound; try++ {
		best = min(best, scenario(t))
	}
	return best
}

// TestGapDrawsFastRetransmit: one frame lost in the middle of a busy
// stream is healed within a few milliseconds although the link has no
// round-trip sample (b's acks are withheld until the NACK) and the
// configured timers are 100ms and 1s — so it was the receiver's NACK
// that drew it, and it drew exactly that frame.
func TestGapDrawsFastRetransmit(t *testing.T) {
	const bound = 5 * time.Millisecond
	took := bestOf(t, bound, func(t *testing.T) time.Duration {
		var nacks atomic.Int64
		a, b := lossyPair(t, loseTransmissions(50, 1), func(m Message) bool {
			if m.Kind == wire.KindNack {
				nacks.Add(1)
			}
			return m.Kind == wire.KindHeartbeat // no ack before the NACK: no RTT sample
		})
		took := healTime(t, a, b, 100, 49)
		if f, _ := Faults(a); f.Retransmits != 1 {
			t.Errorf("%d retransmits for one lost frame, want exactly the hole", f.Retransmits)
		}
		if n := nacks.Load(); n != 1 {
			t.Errorf("%d NACKs for one hole", n)
		}
		return took
	})
	if took >= bound {
		t.Errorf("mid-stream loss healed in %v, want < %v", took, bound)
	}
}

// TestTailLossHealedByRTTTimer: the last frame on a link that then
// goes idle is lost. No later frame reveals the gap, so only the
// retransmit timer can heal it — and it runs off the round trip the
// earlier frames measured, not off the configured 1s.
func TestTailLossHealedByRTTTimer(t *testing.T) {
	const bound = 10 * time.Millisecond
	took := bestOf(t, bound, func(t *testing.T) time.Duration {
		a, b := lossyPair(t, loseTransmissions(100, 1), loseNothing)
		return healTime(t, a, b, 100, 99)
	})
	if took >= bound {
		t.Errorf("tail loss healed in %v, want < %v", took, bound)
	}
}

// TestLostNackAndLostFastRetransmitFallBackToRTO: when the NACK itself
// is lost, or the retransmission it drew, the retransmit timer — on a
// link with a measured round trip — still heals the hole long before
// any configured timer would.
func TestLostNackAndLostFastRetransmitFallBackToRTO(t *testing.T) {
	const bound, warm = 50 * time.Millisecond, 20
	t.Run("lost NACK", func(t *testing.T) {
		a, b := lossyPair(t, loseTransmissions(warm+50, 1), func(m Message) bool { return m.Kind == wire.KindNack })
		warmLink(t, a, b, warm)
		if took := healTime(t, a, b, 100, 49); took >= bound {
			t.Errorf("healed in %v, want < %v", took, bound)
		}
		if f, _ := Faults(a); f.Retransmits == 0 {
			t.Error("the hole was never resent")
		}
	})
	t.Run("lost fast retransmit", func(t *testing.T) {
		a, b := lossyPair(t, loseTransmissions(warm+50, 2), loseNothing)
		warmLink(t, a, b, warm)
		if took := healTime(t, a, b, 100, 49); took >= bound {
			t.Errorf("healed in %v, want < %v", took, bound)
		}
		if f, _ := Faults(a); f.Retransmits < 2 {
			t.Errorf("%d retransmits, want the lost fast retransmit and the timer's", f.Retransmits)
		}
	})
}

// TestFailureDetectorCountsOnlyTicksItListenedThrough drives the
// heartbeat clock by hand (the configured interval is an hour, so the
// real ticker never fires). A tick that arrives five intervals late —
// the process was stalled, and was not listening either — must not
// count against a peer, while a peer silent through `misses` punctual
// ticks is still declared dead, one interval after the deadline at the
// latest.
func TestFailureDetectorCountsOnlyTicksItListenedThrough(t *testing.T) {
	opts := ReliableOptions{HeartbeatInterval: time.Hour, HeartbeatMisses: 4}
	// heardOnce builds node 0 of a pair whose node 1 is heard from once
	// and never again. tick fires node 0's heartbeat clock as if
	// `intervals` had passed since it started and reports whether that
	// produced the PEERDOWN verdict.
	heardOnce := func() (tick func(intervals int) (down bool)) {
		eps := NewInProc(2)
		e := NewReliable(eps[0], opts).(*relEndpoint)
		t.Cleanup(func() { _ = e.Close() })
		if err := eps[1].Send(Message{To: 0, Kind: wire.KindHeartbeat}); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); !e.peer(1).heard.Load(); {
			if time.Now().After(deadline) {
				t.Fatal("heartbeat never processed")
			}
			time.Sleep(time.Millisecond)
		}
		return func(intervals int) bool {
			e.tick(e.epoch.Add(time.Duration(intervals) * opts.interval()))
			select {
			case m := <-e.inbox:
				if m.Kind != wire.KindPeerDown || m.From != 1 {
					t.Fatalf("unexpected message kind %d from %d", m.Kind, m.From)
				}
				return true
			default:
				return false
			}
		}
	}

	tick := heardOnce()
	tick(1) // hears the heartbeat
	tick(2)
	tick(3)
	tick(4) // three silent ticks
	// Five intervals late: 9 intervals of silence by the wall clock.
	if tick(10) {
		t.Fatal("a local stall was read as the peer's silence")
	}
	if !tick(11) { // the fourth punctual silent tick
		t.Fatal("peer silent through 4 punctual ticks not declared dead")
	}

	// A peer that simply stops: heard at tick 1, dead by tick 1+misses.
	tick = heardOnce()
	for i := 1; i <= opts.misses(); i++ {
		if tick(i) {
			t.Fatalf("declared dead at tick %d, before the deadline", i)
		}
	}
	if !tick(1 + opts.misses()) {
		t.Fatal("silent peer not declared dead within Deadline() + one interval")
	}
}

// TestNeverReachablePeerDown pins the detection contract for a peer
// that was never reachable: Send itself never errors (the frame parks
// in the retransmit ring), the failure detector synthesises a PeerDown
// verdict within the heartbeat deadline, and every later Send fails
// fast with an error naming the peer and the frame kind.
func TestNeverReachablePeerDown(t *testing.T) {
	ctl, eps := NewChaos(NewInProc(2), ChaosRules{})
	opts := ReliableOptions{HeartbeatInterval: 5 * time.Millisecond}
	a := NewReliable(eps[0], opts)
	t.Cleanup(func() { _ = a.Close() })
	ctl.Kill(1) // node 1 never comes up

	start := time.Now()
	if err := a.Send(Message{To: 1, Kind: 7, Tag: 1, Payload: []byte("x")}); err != nil {
		t.Fatalf("send to a not-yet-declared-dead peer must be absorbed, got %v", err)
	}
	m, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if m.Kind != wire.KindPeerDown || m.From != 1 {
		t.Fatalf("expected PeerDown(from=1), got kind %d from %d", m.Kind, m.From)
	}
	if elapsed < opts.Deadline() {
		t.Errorf("peer declared dead after %v, before the %v deadline", elapsed, opts.Deadline())
	}
	if limit := 20 * opts.Deadline(); elapsed > limit {
		t.Errorf("peer-down verdict took %v, want within %v of the deadline", elapsed, limit)
	}

	err = a.Send(Message{To: 1, Kind: 9})
	if !IsPeerDown(err) || !errors.Is(err, ErrPeerDown) {
		t.Fatalf("send to a dead peer: %v, want ErrPeerDown", err)
	}
	if !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), "kind 9") {
		t.Errorf("dead-peer error %q lacks peer id and frame kind context", err)
	}
	if f, _ := Faults(a); f.PeersDown != 1 {
		t.Errorf("FaultCounters().PeersDown = %d, want 1", f.PeersDown)
	}
}

// TestReliablePassesUnsequencedFrames: frames from a peer without the
// reliability wrapper (Seq 0) pass straight through instead of being
// held for a sequence number that will never come.
func TestReliablePassesUnsequencedFrames(t *testing.T) {
	eps := NewInProc(2)
	b := NewReliable(eps[1], fastRel)
	t.Cleanup(func() { _ = b.Close() })
	if err := eps[0].Send(Message{To: 1, Tag: 42, Kind: 5, Payload: []byte("bare")}); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Tag != 42 || m.Kind != 5 || string(m.Payload) != "bare" {
		t.Fatalf("unsequenced frame mangled: %+v", m)
	}
}

// TestChaosDeterministic: the same seed replays the same fault
// pattern — two identical runs of the bare chaos layer (no healing)
// deliver the identical frame sequence.
func TestChaosDeterministic(t *testing.T) {
	deliver := func() []uint64 {
		_, eps := NewChaos(NewInProc(2), ChaosRules{Seed: 11, Drop: 0.2, Dup: 0.2, Reorder: 0.2})
		defer eps[0].Close()
		defer eps[1].Close()
		for i := 0; i < 100; i++ {
			if err := eps[0].Send(Message{To: 1, Tag: uint64(i), Kind: 1}); err != nil {
				t.Fatal(err)
			}
		}
		// Drain until the link has been quiet for a while: with no
		// healing layer some frames (including any sentinel we might
		// send) are simply gone, so a quiet-period cutoff is the only
		// hang-free way to collect "everything that arrived".
		got := make(chan uint64)
		go func() {
			defer close(got)
			for {
				m, err := eps[1].Recv()
				if err != nil {
					return
				}
				got <- m.Tag
			}
		}()
		var tags []uint64
		for {
			select {
			case tag, ok := <-got:
				if !ok {
					return tags
				}
				tags = append(tags, tag)
			case <-time.After(300 * time.Millisecond):
				return tags
			}
		}
	}
	first, second := deliver(), deliver()
	if len(first) != len(second) {
		t.Fatalf("same seed delivered %d then %d frames", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("same seed diverged at frame %d: %d vs %d", i, first[i], second[i])
		}
	}
}

// TestChaosRulesValidate pins the probability range contract.
func TestChaosRulesValidate(t *testing.T) {
	for _, tc := range []struct {
		rules ChaosRules
		ok    bool
	}{
		{ChaosRules{}, true},
		{ChaosRules{Drop: 0.99, Dup: 0.5, Reorder: 0}, true},
		{ChaosRules{Drop: 1.0}, false},
		{ChaosRules{Dup: -0.1}, false},
		{ChaosRules{Reorder: 2}, false},
	} {
		err := tc.rules.Validate()
		if tc.ok && err != nil {
			t.Errorf("%+v: %v", tc.rules, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%+v accepted", tc.rules)
		}
	}
}
