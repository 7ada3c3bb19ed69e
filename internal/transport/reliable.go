package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"autodist/internal/wire"
)

// ReliableOptions tunes the reliability wrapper. The zero value picks
// defaults suited to LAN tests: 25ms heartbeats, a peer is declared
// dead after 4 missed intervals, and the retransmit timeout starts at
// 50ms until the link's measured round trip replaces it.
type ReliableOptions struct {
	// HeartbeatInterval is the liveness-probe period (0 = 25ms).
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many silent intervals declare a peer dead
	// (0 = 4).
	HeartbeatMisses int
	// RetransmitTimeout is the retransmit timeout of a link with no
	// round-trip sample yet, and the ceiling of every later one (0 =
	// 50ms). Once acknowledgements have been timed, a frame is resent
	// after SRTT + 4·RTTVAR (at least rtoFloor), doubling per repeat up
	// to this ceiling.
	RetransmitTimeout time.Duration
}

func (o *ReliableOptions) interval() time.Duration {
	if o.HeartbeatInterval <= 0 {
		return 25 * time.Millisecond
	}
	return o.HeartbeatInterval
}

func (o *ReliableOptions) misses() int {
	if o.HeartbeatMisses <= 0 {
		return 4
	}
	return o.HeartbeatMisses
}

func (o *ReliableOptions) retransmit() time.Duration {
	if o.RetransmitTimeout <= 0 {
		return 50 * time.Millisecond
	}
	return o.RetransmitTimeout
}

// Deadline is the failure-detection deadline the options imply: a peer
// silent this long is declared dead.
func (o *ReliableOptions) Deadline() time.Duration {
	return o.interval() * time.Duration(o.misses())
}

const (
	// rtoFloor bounds the measured retransmit timeout from below: on a
	// loopback link SRTT + 4·RTTVAR is tens of microseconds, shorter
	// than the scheduler's own jitter, and a timeout that fires on
	// jitter only adds duplicates.
	rtoFloor = time.Millisecond
	// timerGrain is the period of the retransmit/ack timer while any
	// link has work. An acknowledgement nothing piggybacked goes out
	// within one grain, so it must stay well below rtoFloor or the
	// peer's timeout would beat it.
	timerGrain = rtoFloor / 4
	// flushCap is the hard bound on Flush's ack barrier.
	flushCap = time.Second
)

// relEntry is one unacknowledged outbound frame. The payload is a
// pooled master copy owned by the ring and released on acknowledgement;
// it is only read under the peer's mu, and every retransmission sends a
// copy made there.
type relEntry struct {
	msg Message
	// lastSent is the latest (re)transmission, in nanoseconds since the
	// endpoint's epoch.
	lastSent int64
	// attempts counts transmissions. An entry sent more than once is no
	// round-trip sample (Karn's rule: its ack is ambiguous).
	attempts int
}

// relPeer is the per-peer reliability state, split by who owns it so
// the two directions of a link and the links of different peers do not
// share a lock.
type relPeer struct {
	// txMu serialises sequence assignment with the first transmission,
	// so frames reach the inner fabric in sequence order: an inversion
	// between two concurrent senders would look like a gap to the
	// receiver and draw a needless NACK. The receive loop never takes
	// it, so a sender blocked on the inner fabric's backpressure cannot
	// stall ack processing.
	txMu sync.Mutex

	// mu guards the outbound state: seq of the next frame is nextSeq+1,
	// unacked holds frames in seq order awaiting a cumulative ack, and
	// srtt/rttvar are the link's smoothed round trip and its deviation
	// (zero until the first sample).
	mu      sync.Mutex
	nextSeq uint64
	unacked []relEntry
	srtt    time.Duration
	rttvar  time.Duration

	// Inbound state belongs to the receive loop alone. recvNext is the
	// next expected seq, published for senders to piggyback as an ack;
	// reorder buffers frames that arrived early; nacked is the recvNext
	// a NACK was last sent for (one NACK per hole).
	recvNext atomic.Uint64
	reorder  map[uint64]Message
	nacked   uint64

	// ackSent is the highest cumulative ack put on any frame to this
	// peer. While it trails what has been delivered an ack is owed: the
	// next frame that way carries it, or else the timer's next scan
	// sends it on its own.
	ackSent atomic.Uint64

	// Failure detection: the receive loop raises heard, the heartbeat
	// tick lowers it and counts the ticks that found it down.
	heard  atomic.Bool
	silent int
	active atomic.Bool
	down   atomic.Bool
}

func newRelPeer() *relPeer {
	p := &relPeer{reorder: map[uint64]Message{}}
	p.recvNext.Store(1)
	return p
}

// ack returns the cumulative acknowledgement to put on a frame to this
// peer, and records that it was sent.
func (p *relPeer) ack() uint64 {
	a := p.recvNext.Load() - 1
	if p.ackSent.Load() != a {
		p.ackSent.Store(a)
	}
	return a
}

// ackOwed reports whether frames have been delivered that no frame to
// the peer has acknowledged yet.
func (p *relPeer) ackOwed() bool {
	return p.ackSent.Load() < p.recvNext.Load()-1
}

// live reports whether the link has seen traffic and has not been
// declared dead: the links the timers look after.
func (p *relPeer) live() bool {
	return p.active.Load() && !p.down.Load()
}

// rto is the link's current retransmit timeout for a frame already
// sent attempts times. Callers hold p.mu.
func (p *relPeer) rto(ceiling time.Duration, attempts int) time.Duration {
	base := ceiling
	if p.srtt > 0 {
		base = max(p.srtt+4*p.rttvar, rtoFloor)
	}
	return min(base<<uint(min(attempts-1, 16)), ceiling)
}

// sample folds one round-trip measurement into the estimator
// (Jacobson/Karels, as in RFC 6298). Callers hold p.mu.
func (p *relPeer) sample(rtt time.Duration) {
	if p.srtt == 0 {
		p.srtt, p.rttvar = rtt, rtt/2
		return
	}
	p.rttvar += ((p.srtt - rtt).Abs() - p.rttvar) / 4
	p.srtt += (rtt - p.srtt) / 8
}

// Timer states: the clock goroutine parks when no link has work, and
// the hot path wakes it with one atomic load in the common case.
const (
	timerParked int32 = iota // waiting for a kick
	timerIdle                // running; no wake() since the last scan
	timerBusy                // running; work arrived since the last scan
)

// relEndpoint layers per-peer FIFO exactly-once delivery, loss
// recovery and heartbeat failure detection over any inner fabric.
// Frames are sequenced per (sender, receiver) direction and carry
// cumulative acknowledgements. A receiver that sees a sequence gap
// names it at once with a NACK and the sender resends exactly that
// frame; a loss nothing reveals (the last frame of a burst, a lost
// NACK) is resent when the link's measured round trip says the ack is
// overdue. Heartbeats keep quiet links alive and carry acks of their
// own. When a peer misses enough heartbeats it is declared dead: its
// ring is dropped, later Sends fail fast with ErrPeerDown, and a
// synthetic KindPeerDown message is delivered into the local receive
// stream so the runtime can start recovery.
//
// Send never propagates inner transmission errors: a frame that could
// not reach the socket stays in the ring and is retried with backoff,
// so a peer that was never reachable produces a PeerDown verdict
// within the heartbeat deadline instead of an error-per-send retry
// loop.
//
// Frames a node addresses to itself bypass all of this: they never
// cross a wire that could lose them.
type relEndpoint struct {
	inner       Endpoint
	opts        ReliableOptions
	rank        int
	innerCopies bool
	epoch       time.Time

	// inbox decouples the receive loop — which must keep retiring acks
	// and answering gaps whether or not the consumer is in Recv — from
	// the consumer. 1024 matches the inner fabrics' inboxes.
	inbox     chan Message
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// peers is copy-on-grow: readers load the table without a lock,
	// growMu serialises the rare growth (an admitted joiner).
	peers  atomic.Pointer[[]*relPeer]
	growMu sync.Mutex

	timer    atomic.Int32
	kick     chan struct{}
	lastTick time.Time // clock-goroutine-owned

	retransmits atomic.Int64
	recovered   atomic.Int64
	peersDown   atomic.Int64
}

// NewReliable wraps ep with the reliability layer. The wrapper owns
// the inner endpoint: closing the wrapper closes ep.
func NewReliable(ep Endpoint, opts ReliableOptions) Endpoint {
	e := &relEndpoint{
		inner:       ep,
		opts:        opts,
		rank:        ep.Rank(),
		innerCopies: CopiesPayload(ep),
		epoch:       time.Now(),
		inbox:       make(chan Message, 1024),
		done:        make(chan struct{}),
		kick:        make(chan struct{}, 1),
	}
	peers := make([]*relPeer, ep.Size())
	for i := range peers {
		peers[i] = newRelPeer()
	}
	e.peers.Store(&peers)
	e.lastTick = e.epoch
	e.wg.Add(2)
	go e.recvLoop()
	go e.clockLoop()
	return e
}

func (e *relEndpoint) Rank() int { return e.rank }
func (e *relEndpoint) Size() int { return e.inner.Size() }

// now is the endpoint's monotonic clock.
func (e *relEndpoint) now() int64 { return int64(time.Since(e.epoch)) }

// peer returns the state for rank, growing the table when the inner
// fabric has grown past it (an admitted joiner): new peers start with
// fresh sequence space, exactly like peers at construction. Callers
// have bounds-checked rank against e.Size().
func (e *relEndpoint) peer(rank int) *relPeer {
	if ps := *e.peers.Load(); rank < len(ps) {
		return ps[rank]
	}
	e.growMu.Lock()
	defer e.growMu.Unlock()
	ps := *e.peers.Load()
	if rank >= len(ps) {
		grown := append([]*relPeer(nil), ps...)
		for len(grown) <= rank {
			grown = append(grown, newRelPeer())
		}
		e.peers.Store(&grown)
		ps = grown
	}
	return ps[rank]
}

// markDown stops all traffic to and from a peer and releases its ring.
// It reports whether this call made the transition.
func (e *relEndpoint) markDown(p *relPeer) bool {
	if p.down.Swap(true) {
		return false
	}
	p.mu.Lock()
	for i := range p.unacked {
		wire.PutBuf(p.unacked[i].msg.Payload)
	}
	p.unacked = nil
	p.mu.Unlock()
	return true
}

// RetireRank drops all reliability state for a given-up rank
// immediately — see transport.RetirePeer. Unlike a
// heartbeat-deadline verdict it synthesises no PeerDown and counts no
// peers-down: the caller already acted on the departure, and what this
// buys is that frames queued to the rank stop retransmitting with
// backoff until the deadline.
func (e *relEndpoint) RetireRank(rank int) {
	if rank < 0 || rank >= e.Size() || rank == e.rank {
		return
	}
	e.markDown(e.peer(rank))
}

// SendCopiesPayload: Send copies the payload into the ring's master
// copy before returning, so callers recycle their buffer immediately.
func (e *relEndpoint) SendCopiesPayload() bool { return true }

// Flush is an ack barrier: it returns once every frame sent so far to
// a live peer has been acknowledged, so a caller about to close the
// endpoint (runtime shutdown) cannot strand an unacknowledged frame in
// the ring, where nothing would retransmit it. The wait is bounded by a
// few retransmit timeouts (at most flushCap); frames still outstanding
// then are reported as an error.
func (e *relEndpoint) Flush() error {
	if err := Flush(e.inner); err != nil {
		return err
	}
	deadline := time.Now().Add(min(4*e.opts.retransmit(), flushCap))
	for {
		rank, n := e.outstanding()
		if n == 0 {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("transport: flush: %d frame(s) to node %d unacknowledged", n, rank)
		}
		select {
		case <-e.done:
			return ErrClosed
		case <-time.After(timerGrain):
		}
	}
}

// outstanding names a live peer with unacknowledged frames and how
// many it has (0 when every ring is empty).
func (e *relEndpoint) outstanding() (rank, n int) {
	for rank, p := range *e.peers.Load() {
		if p.down.Load() {
			continue
		}
		p.mu.Lock()
		n := len(p.unacked)
		p.mu.Unlock()
		if n > 0 {
			return rank, n
		}
	}
	return 0, 0
}

// FaultCounters exposes the reliability counters (see Faults).
func (e *relEndpoint) FaultCounters() FaultStats {
	return FaultStats{
		Retransmits: e.retransmits.Load(),
		Recovered:   e.recovered.Load(),
		PeersDown:   e.peersDown.Load(),
	}
}

func (e *relEndpoint) Send(msg Message) error {
	if msg.To < 0 || msg.To >= e.Size() {
		return fmt.Errorf("transport: bad destination %d", msg.To)
	}
	msg.From = e.rank
	if msg.To == e.rank {
		return e.inner.Send(msg)
	}
	p := e.peer(msg.To)
	if p.down.Load() {
		return errPeerDown(msg)
	}
	master := msg
	if len(msg.Payload) > 0 {
		master.Payload = append(wire.GetBuf(), msg.Payload...)
	}
	p.txMu.Lock()
	p.mu.Lock()
	if p.down.Load() {
		// Declared dead since the check above; the ring is gone.
		p.mu.Unlock()
		p.txMu.Unlock()
		wire.PutBuf(master.Payload)
		return errPeerDown(msg)
	}
	p.nextSeq++
	msg.Seq, master.Seq = p.nextSeq, p.nextSeq
	p.unacked = append(p.unacked, relEntry{msg: master, lastSent: e.now(), attempts: 1})
	p.mu.Unlock()
	if !p.active.Load() {
		p.heard.Store(true) // the deadline runs from first contact
		p.active.Store(true)
	}
	msg.Ack = p.ack()
	// Transmission errors are absorbed: the frame is in the ring and
	// the retransmit timer owns its fate; a dead destination surfaces as
	// PeerDown at the heartbeat deadline, not as a send error. The first
	// transmission reads the caller's payload, never the master copy.
	_ = e.transmit(msg)
	p.txMu.Unlock()
	e.wake()
	return nil
}

func errPeerDown(msg Message) error {
	return fmt.Errorf("transport: send to node %d (frame kind %d): %w", msg.To, msg.Kind, ErrPeerDown)
}

// transmit hands one frame to the inner fabric. A non-copying inner
// fabric's receiver keeps the slice it gets, so it is given a copy of
// its own.
func (e *relEndpoint) transmit(msg Message) error {
	if !e.innerCopies && len(msg.Payload) > 0 {
		msg.Payload = append(wire.GetBuf(), msg.Payload...)
	}
	return e.inner.Send(msg)
}

// resendLocked prepares one retransmission of a ring entry: a frame
// with a payload copy of its own (the master may be released the
// moment p.mu drops) and a fresh ack. Callers hold p.mu and pass the
// result to resend after unlocking.
func (e *relEndpoint) resendLocked(p *relPeer, ent *relEntry, now int64) Message {
	ent.lastSent = now
	ent.attempts++
	m := ent.msg
	if len(m.Payload) > 0 {
		m.Payload = append(wire.GetBuf(), m.Payload...)
	}
	m.Ack = p.ack()
	return m
}

func (e *relEndpoint) resend(m Message) {
	e.retransmits.Add(1)
	_ = e.inner.Send(m)
	if e.innerCopies {
		wire.PutBuf(m.Payload)
	}
}

// control sends one unsequenced control frame (a heartbeat or a NACK)
// carrying the cumulative ack. With nothing received yet it has
// Seq=Ack=Dedup=0 and its envelope carries no optional field; its kind
// still marks it.
func (e *relEndpoint) control(to int, p *relPeer, kind uint8) {
	_ = e.inner.Send(Message{From: e.rank, To: to, Kind: kind, Ack: p.ack()})
}

func (e *relEndpoint) Recv() (Message, error) {
	select {
	case msg := <-e.inbox:
		return msg, nil
	default:
	}
	select {
	case msg := <-e.inbox:
		return msg, nil
	case <-e.done:
		return Message{}, ErrClosed
	}
}

// shutdown closes the endpoint once. A graceful close first sends every
// ack still owed: a peer running Flush's ack barrier on its last frame
// to us (the runtime's SHUTDOWN) must not wait for a heartbeat that
// will never come.
func (e *relEndpoint) shutdown(graceful bool) {
	e.closeOnce.Do(func() {
		if graceful {
			for rank, p := range *e.peers.Load() {
				if rank != e.rank && p.live() && p.ackOwed() {
					e.control(rank, p, wire.KindHeartbeat)
				}
			}
			_ = Flush(e.inner)
		}
		close(e.done)
		_ = e.inner.Close()
	})
}

func (e *relEndpoint) Close() error {
	e.shutdown(true)
	// Wait outside the Once: recvLoop enters the same Once on its
	// inner-Recv error path, so waiting for it inside would deadlock.
	e.wg.Wait()
	return nil
}

// deliverLocal hands a message to the local consumer, bounded by Close.
func (e *relEndpoint) deliverLocal(msg Message) bool {
	select {
	case e.inbox <- msg:
		return true
	default:
	}
	select {
	case e.inbox <- msg:
		return true
	case <-e.done:
		return false
	}
}

// recvLoop drains the inner fabric: acks retire ring entries, NACKs
// draw the frame they name, control frames refresh the failure
// detector, duplicates are suppressed (and re-acknowledged: the sender
// evidently missed the ack), and out-of-order frames wait in the
// reorder buffer until the gap fills. Exactly the in-order prefix is
// delivered to the consumer.
func (e *relEndpoint) recvLoop() {
	defer e.wg.Done()
	for {
		msg, err := e.inner.Recv()
		if err != nil {
			// Inner endpoint died (closed under us, or the process is
			// being torn down): surface ErrClosed to our consumer.
			e.shutdown(false)
			return
		}
		if msg.From < 0 || msg.From >= e.Size() {
			wire.PutBuf(msg.Payload)
			continue
		}
		if msg.From == e.rank {
			if !e.deliverLocal(msg) {
				return
			}
			continue
		}
		p := e.peer(msg.From)
		if p.down.Load() {
			// A declared-dead peer stays dead; drop zombie frames and
			// whatever was waiting for a gap that will never fill.
			wire.PutBuf(msg.Payload)
			for seq, held := range p.reorder {
				wire.PutBuf(held.Payload)
				delete(p.reorder, seq)
			}
			continue
		}
		if !p.heard.Load() {
			p.heard.Store(true)
		}
		if !p.active.Load() {
			p.active.Store(true)
		}
		nack := msg.Kind == wire.KindNack
		if msg.Ack > 0 || nack {
			e.acked(p, msg.Ack, nack)
		}
		next := p.recvNext.Load()
		switch {
		case msg.Kind == wire.KindHeartbeat || nack:
			// Liveness and ack only; never delivered.
		case msg.Seq == 0:
			// Unsequenced frame (a peer without the wrapper); pass
			// through unordered.
			if !e.deliverLocal(msg) {
				return
			}
		case msg.Seq < next:
			// Duplicate of an already-delivered frame: suppress, and say
			// so — the sender resent because our ack did not reach it.
			e.recovered.Add(1)
			wire.PutBuf(msg.Payload)
			e.control(msg.From, p, wire.KindHeartbeat)
		case msg.Seq > next:
			// Early frame: hold until the gap fills.
			if _, dup := p.reorder[msg.Seq]; dup {
				e.recovered.Add(1)
				wire.PutBuf(msg.Payload)
			} else {
				p.reorder[msg.Seq] = msg
			}
			e.nackHole(msg.From, p, next)
		default:
			if !e.deliverLocal(msg) {
				return
			}
			next++
			for len(p.reorder) > 0 {
				held, ok := p.reorder[next]
				if !ok {
					break
				}
				delete(p.reorder, next)
				e.recovered.Add(1)
				if !e.deliverLocal(held) {
					return
				}
				next++
			}
			p.recvNext.Store(next)
			if len(p.reorder) > 0 {
				e.nackHole(msg.From, p, next) // a second hole behind the first
			}
			e.wake() // an ack is owed
		}
	}
}

// nackHole tells the sender which frame the receiver is missing, once
// per hole.
func (e *relEndpoint) nackHole(from int, p *relPeer, next uint64) {
	if p.nacked != next {
		p.nacked = next
		e.control(from, p, wire.KindNack)
	}
}

// acked retires the ring entries a cumulative ack covers, takes a
// round-trip sample from the newest of them when none was ever resent,
// and — for a NACK — resends the frame right behind the ack: the hole
// the receiver named, not the whole ring.
func (e *relEndpoint) acked(p *relPeer, ack uint64, nack bool) {
	var hole Message
	p.mu.Lock()
	n, clean := 0, true
	for n < len(p.unacked) && p.unacked[n].msg.Seq <= ack {
		clean = clean && p.unacked[n].attempts == 1
		wire.PutBuf(p.unacked[n].msg.Payload)
		n++
	}
	resend := nack && n < len(p.unacked) && p.unacked[n].msg.Seq == ack+1
	if n > 0 || resend { // most frames retire nothing new and skip the clock
		now := e.now()
		if n > 0 && clean {
			p.sample(time.Duration(now - p.unacked[n-1].lastSent))
		}
		rest := copy(p.unacked, p.unacked[n:])
		clear(p.unacked[rest:])
		p.unacked = p.unacked[:rest]
		if resend {
			hole = e.resendLocked(p, &p.unacked[0], now)
		}
	}
	p.mu.Unlock()
	if resend {
		e.resend(hole)
	}
}

// wake makes sure the retransmit/ack timer is running. It is called
// per frame, so the common case — the timer is running and already
// knows there is work — is one atomic load.
func (e *relEndpoint) wake() {
	if e.timer.Load() == timerBusy {
		return
	}
	if e.timer.Swap(timerBusy) == timerParked {
		select {
		case e.kick <- struct{}{}:
		default:
		}
	}
}

// clockLoop is the endpoint's one clock goroutine. The heartbeat tick
// runs for the endpoint's whole life; the fine-grained retransmit/ack
// timer runs only while some link has unacknowledged frames or owes an
// ack, and parks otherwise, so an idle deployment does no timer work
// beyond its heartbeats.
func (e *relEndpoint) clockLoop() {
	defer e.wg.Done()
	beat := time.NewTicker(e.opts.interval())
	defer beat.Stop()
	grain := time.NewTimer(timerGrain)
	grain.Stop()
	defer grain.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-e.kick:
			grain.Reset(timerGrain)
		case <-grain.C:
			e.timer.Store(timerIdle)
			if e.scan(e.now()) || !e.timer.CompareAndSwap(timerIdle, timerParked) {
				grain.Reset(timerGrain)
			}
		case <-beat.C:
			if !e.tick(time.Now()) {
				return
			}
		}
	}
}

// scan is one pass of the retransmit/ack timer over every live link.
// It sends the acks still owed — nothing going that way has carried
// them — and resends each ring's oldest frame once its ack is overdue.
// The oldest only: the ack it draws covers everything the receiver
// already holds behind it. It reports whether any link still has
// unacknowledged frames.
func (e *relEndpoint) scan(now int64) (pending bool) {
	ceiling := e.opts.retransmit()
	for rank, p := range *e.peers.Load() {
		if rank == e.rank || !p.live() {
			continue
		}
		if p.ackOwed() {
			e.control(rank, p, wire.KindHeartbeat)
		}
		var overdue Message
		p.mu.Lock()
		resend := false
		if len(p.unacked) > 0 {
			pending = true
			head := &p.unacked[0]
			resend = time.Duration(now-head.lastSent) >= p.rto(ceiling, head.attempts)
			if resend {
				overdue = e.resendLocked(p, head, now)
			}
		}
		p.mu.Unlock()
		if resend {
			e.resend(overdue)
		}
	}
	return pending
}

// tick is the heartbeat and failure-detector clock: it declares a peer
// dead once `misses` consecutive ticks heard nothing from it
// (synthesising PeerDown), and heartbeats every live peer so quiet
// links stay provably alive. Silence is counted in ticks, not read off
// the wall clock, and a tick that fires more than an interval late
// counts for nothing: a process that was stalled was not listening
// either, so its own pause must not read as the peer's. It reports
// false once the endpoint has closed.
func (e *relEndpoint) tick(now time.Time) bool {
	late := now.Sub(e.lastTick) > 2*e.opts.interval()
	e.lastTick = now
	for rank, p := range *e.peers.Load() {
		if rank == e.rank || !p.live() {
			continue
		}
		switch {
		case p.heard.Swap(false):
			p.silent = 0
		case late:
		default:
			p.silent++
		}
		if p.silent >= e.opts.misses() {
			if e.markDown(p) {
				e.peersDown.Add(1)
				if !e.deliverLocal(Message{From: rank, To: e.rank, Kind: wire.KindPeerDown}) {
					return false
				}
			}
			continue
		}
		e.control(rank, p, wire.KindHeartbeat)
	}
	return true
}
