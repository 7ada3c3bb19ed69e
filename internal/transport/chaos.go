package transport

import (
	"fmt"
	"math/rand"
	"sync"
)

// ChaosRules is a seeded fault-injection policy. Each (sender,
// receiver) link gets its own deterministic random stream derived from
// Seed, so a given rule set replays the same fault pattern run after
// run regardless of goroutine scheduling on other links.
type ChaosRules struct {
	// Seed derives every link's random stream. The same seed and rules
	// reproduce the same per-link fault sequence.
	Seed int64
	// Drop is the probability a frame is silently discarded.
	Drop float64
	// Dup is the probability a frame is delivered twice.
	Dup float64
	// Reorder is the probability a frame is held back and sent after
	// the link's next frame (a pairwise swap; a held frame with no
	// successor looks like a drop and is healed by retransmission).
	Reorder float64
}

// Zero reports whether the rules inject no faults at all.
func (r ChaosRules) Zero() bool { return r.Drop == 0 && r.Dup == 0 && r.Reorder == 0 }

// Validate rejects out-of-range probabilities.
func (r ChaosRules) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", r.Drop}, {"dup", r.Dup}, {"reorder", r.Reorder}} {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("chaos: %s probability %v outside [0,1)", p.name, p.v)
		}
	}
	return nil
}

// Chaos is the fault controller for a wrapped cluster: it owns the
// kill switch. Killing a rank closes that rank's endpoint (its Recv
// unblocks with ErrClosed, exactly like a process crash) and
// black-holes every frame to or from it, so the reliability layer
// above observes pure silence and declares it dead at the heartbeat
// deadline.
type Chaos struct {
	mu     sync.Mutex
	killed map[int]bool
	eps    []*chaosEndpoint
}

// Kill simulates the crash of rank: frames to and from it vanish and
// its endpoint closes. Idempotent.
func (c *Chaos) Kill(rank int) {
	c.mu.Lock()
	if c.killed[rank] {
		c.mu.Unlock()
		return
	}
	c.killed[rank] = true
	var ep *chaosEndpoint
	if rank >= 0 && rank < len(c.eps) {
		ep = c.eps[rank]
	}
	c.mu.Unlock()
	if ep != nil {
		_ = ep.inner.Close()
	}
}

// Killed reports whether rank has been killed.
func (c *Chaos) Killed(rank int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed[rank]
}

// Extend wraps a freshly grown endpoint (an admitted joiner) with the
// controller's rules and registers it with the kill switch. The new
// rank's links draw from the same seed schedule they would have had at
// construction, so a scale-out run replays deterministically.
func (c *Chaos) Extend(ep Endpoint, rules ChaosRules) Endpoint {
	ce := &chaosEndpoint{inner: ep, ctl: c, rules: rules}
	c.mu.Lock()
	for len(c.eps) < ep.Rank() {
		c.eps = append(c.eps, nil)
	}
	c.eps = append(c.eps, ce)
	c.mu.Unlock()
	return ce
}

// chaosLink is the per-destination fault state: a seeded random stream
// and at most one held (reordered) frame.
type chaosLink struct {
	rng  *rand.Rand
	held *Message
}

// chaosEndpoint wraps one rank's endpoint with the fault rules. It
// sits below the reliability layer: injected faults are exactly what
// that layer must heal.
type chaosEndpoint struct {
	inner Endpoint
	ctl   *Chaos
	rules ChaosRules

	mu    sync.Mutex
	links []*chaosLink
}

// NewChaos wraps every endpoint of a cluster with the fault rules and
// returns the shared controller alongside the wrapped endpoints.
func NewChaos(eps []Endpoint, rules ChaosRules) (*Chaos, []Endpoint) {
	ctl := &Chaos{killed: map[int]bool{}, eps: make([]*chaosEndpoint, len(eps))}
	out := make([]Endpoint, len(eps))
	for i, ep := range eps {
		ce := &chaosEndpoint{inner: ep, ctl: ctl, rules: rules}
		ce.growLinks(ep.Size())
		ctl.eps[i] = ce
		out[i] = ce
	}
	return ctl, out
}

// growLinks extends the per-destination fault state to n links. Each
// directed link's stream depends only on (seed, sender, receiver), so
// a link created by growth behaves exactly as it would have at
// construction. Callers hold e.mu (or own the endpoint exclusively).
func (e *chaosEndpoint) growLinks(n int) {
	for to := len(e.links); to < n; to++ {
		// One independent deterministic stream per directed link.
		seed := e.rules.Seed*1_000_003 + int64(e.inner.Rank())*4099 + int64(to)
		e.links = append(e.links, &chaosLink{rng: rand.New(rand.NewSource(seed))})
	}
}

func (e *chaosEndpoint) Rank() int { return e.inner.Rank() }
func (e *chaosEndpoint) Size() int { return e.inner.Size() }

// SendCopiesPayload: a frame is either handed to the inner fabric
// before Send returns (inheriting its copy semantics — reported here)
// or held for reordering, in which case the payload is copied first.
func (e *chaosEndpoint) SendCopiesPayload() bool { return CopiesPayload(e.inner) }

// Flush delegates to the inner fabric's write barrier.
func (e *chaosEndpoint) Flush() error { return Flush(e.inner) }

func (e *chaosEndpoint) Send(msg Message) error {
	if e.ctl.Killed(e.Rank()) || e.ctl.Killed(msg.To) {
		// Black hole: the frame vanishes, as on a dead wire.
		return nil
	}
	if e.rules.Zero() {
		return e.inner.Send(msg)
	}
	if msg.To < 0 || msg.To >= e.Size() || msg.To == e.Rank() {
		// Faults model the wire; self-delivery never traverses it. The
		// reliability layer above never retransmits on the self link
		// (a node cannot outlive itself), so a fault injected here
		// would be unhealable — e.g. a dropped self-addressed SHUTDOWN
		// would hang the serve loop forever.
		return e.inner.Send(msg)
	}
	e.mu.Lock()
	if msg.To >= len(e.links) {
		e.growLinks(e.Size())
	}
	link := e.links[msg.To]
	roll := func(p float64) bool { return p > 0 && link.rng.Float64() < p }
	drop := roll(e.rules.Drop)
	dup := roll(e.rules.Dup)
	reorder := roll(e.rules.Reorder)
	held := link.held
	link.held = nil
	if drop {
		e.mu.Unlock()
		// The dropped frame still releases any frame held behind it.
		if held != nil {
			return e.inner.Send(*held)
		}
		return nil
	}
	if reorder {
		// Hold this frame until the link's next send; own the payload.
		hold := msg
		if len(hold.Payload) > 0 {
			hold.Payload = append([]byte(nil), hold.Payload...)
		}
		link.held = &hold
		e.mu.Unlock()
		if held != nil {
			return e.inner.Send(*held)
		}
		return nil
	}
	e.mu.Unlock()
	// A non-copying inner fabric hands the payload to the receiver, who
	// may recycle it at once: the duplicate's copy is taken first.
	d := msg
	if dup && !CopiesPayload(e.inner) && len(d.Payload) > 0 {
		d.Payload = append([]byte(nil), d.Payload...)
	}
	if err := e.inner.Send(msg); err != nil {
		return err
	}
	if dup {
		_ = e.inner.Send(d)
	}
	if held != nil {
		return e.inner.Send(*held)
	}
	return nil
}

func (e *chaosEndpoint) Recv() (Message, error) { return e.inner.Recv() }
func (e *chaosEndpoint) Close() error           { return e.inner.Close() }
