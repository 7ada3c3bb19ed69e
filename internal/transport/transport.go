// Package transport provides the message-passing fabric that plays
// MPI's role in the runtime (paper §5). It deliberately exposes a
// message-exchange interface (send/recv of tagged frames) rather than
// request/response RPC, because the paper argues message exchange
// exposes more communication-optimisation opportunities than RPC/RMI.
//
// Two interchangeable fabrics are provided: an in-process fabric built
// on channels (hermetic tests, deterministic simulation) and a TCP
// fabric with compact binary frames (real distributed execution); both
// use the internal/wire codec's frame envelope model.
package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Message is one tagged frame. Tag correlates requests with responses;
// TID names the logical thread the frame belongs to (0 is the system
// thread), so replies, asynchronous batches and deferred errors
// correlate per thread rather than per node; Time carries the sender's
// simulated clock for the virtual-time model (paper §7.2's
// heterogeneous-node experiments).
type Message struct {
	From, To int
	Tag      uint64
	TID      uint64
	Kind     uint8
	// Seq and Ack are the reliability layer's sequence number and
	// cumulative acknowledgement for the (sender, receiver) direction;
	// Dedup is the runtime's idempotency id for re-driven requests. All
	// three are zero on fabrics without the reliability wrapper, and a
	// zero field costs nothing in the wire envelope.
	Seq   uint64
	Ack   uint64
	Dedup uint64
	// View is the sender's membership view id, stamped on coordination
	// traffic by elastic clusters. Zero everywhere else, and then absent
	// from the wire envelope.
	View    uint64
	Time    float64
	Payload []byte
}

// Endpoint is one node's port into the fabric — the MPI service of
// Figure 10.
type Endpoint interface {
	// Rank is this node's id in [0, Size).
	Rank() int
	// Size is the number of nodes.
	Size() int
	// Send delivers a message to node msg.To. It is safe for
	// concurrent use.
	Send(msg Message) error
	// Recv blocks until a message arrives (any sender). It returns
	// an error after Close.
	Recv() (Message, error)
	// Close tears the endpoint down, unblocking Recv.
	Close() error
}

// ErrClosed is returned by Recv after Close.
var ErrClosed = fmt.Errorf("transport: endpoint closed")

// ErrPeerDown is returned (wrapped, with peer and frame-kind context)
// by a reliability-layer Send once the failure detector has declared
// the destination dead. Use IsPeerDown to test for it: runtime errors
// cross the wire as strings, so the sentinel alone is not enough.
var ErrPeerDown = errors.New("transport: peer down")

// IsPeerDown reports whether err (or its text, for errors that crossed
// the wire as strings inside response payloads) indicates a dead peer.
func IsPeerDown(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrPeerDown) || strings.Contains(err.Error(), "peer down")
}

// FaultStats is the reliability layer's counter snapshot: frames
// retransmitted (on a NACK or an ack timeout), frames recovered on the
// receive side (duplicates suppressed plus out-of-order frames healed
// by buffering), and peers declared dead.
type FaultStats struct {
	Retransmits int64
	Recovered   int64
	PeersDown   int64
}

// Faults returns the endpoint's fault counters if the fabric tracks
// them (the reliability wrapper does; bare fabrics do not).
func Faults(ep Endpoint) (FaultStats, bool) {
	f, ok := ep.(interface{ FaultCounters() FaultStats })
	if !ok {
		return FaultStats{}, false
	}
	return f.FaultCounters(), true
}

// CopiesPayload reports whether the fabric's Send consumes
// msg.Payload before returning — encoding it into a connection batch
// or onto the socket — so the caller may recycle the payload buffer
// (wire.PutBuf) as soon as Send returns. The TCP fabric copies; the
// in-process fabric hands the payload slice itself to the receiver, so
// there the buffer is recycled by the consumer after handling instead.
func CopiesPayload(ep Endpoint) bool {
	c, ok := ep.(interface{ SendCopiesPayload() bool })
	return ok && c.SendCopiesPayload()
}

// Flush blocks until every frame the endpoint accepted so far has been
// handed to the kernel — and, under the reliability layer, acknowledged
// by its peer. It is the barrier runtime shutdown uses so control
// frames are never stranded in a write batch or a retransmit ring.
// Fabrics without buffered writers (in-process channels) flush
// trivially.
func Flush(ep Endpoint) error {
	if f, ok := ep.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// Grow adds one node to a growable fabric: it returns a fresh endpoint
// with the next rank, after which every existing endpoint's Size()
// reflects the larger cluster. The in-process and TCP fabrics grow;
// fabrics without the capability return an error. Wrappers (chaos,
// reliability) are grown by wrapping the new base endpoint — their
// existing instances pick the larger size up from their inner endpoint
// lazily.
func Grow(ep Endpoint) (Endpoint, error) {
	g, ok := ep.(interface{ GrowEndpoint() (Endpoint, error) })
	if !ok {
		return nil, fmt.Errorf("transport: fabric cannot grow")
	}
	return g.GrowEndpoint()
}

// RetirePeer removes a rank the caller has given up from an endpoint's
// reliability state immediately: queued frames stop retransmitting,
// heartbeats stop, and subsequent sends to the rank fail fast — with
// no PEERDOWN verdict and no peers-down count, because the caller
// already knows. The runtime retires only burned ranks, grown for a
// joiner it then refused; a drained rank stays up until shutdown and is
// never retired. Fabrics without reliability state ignore it.
func RetirePeer(ep Endpoint, rank int) {
	if r, ok := ep.(interface{ RetireRank(rank int) }); ok {
		r.RetireRank(rank)
	}
}

// Causal reports whether the fabric guarantees causally ordered
// delivery: if send A completes before send B starts anywhere along a
// happens-before chain, A is received before B at a shared receiver.
// Only the in-process fabric claims it (channel sends are globally
// ordered per inbox); independent TCP connections, retransmission and
// injected reordering do not, and an endpoint without the method
// reports false. The runtime does not ask; the one caller is
// benchmark/trace.go, whose recording wrapper forwards the property.
func Causal(ep Endpoint) bool {
	c, ok := ep.(interface{ CausalDelivery() bool })
	return ok && c.CausalDelivery()
}

// inprocFabric is the shared state of an in-process fabric: the
// endpoint roster, guarded so the cluster can grow while senders look
// peers up concurrently.
type inprocFabric struct {
	mu  sync.RWMutex
	eps []*inprocEndpoint
}

func (f *inprocFabric) size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.eps)
}

func (f *inprocFabric) peer(i int) *inprocEndpoint {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if i < 0 || i >= len(f.eps) {
		return nil
	}
	return f.eps[i]
}

func (f *inprocFabric) grow() *inprocEndpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := &inprocEndpoint{rank: len(f.eps), fab: f, inbox: make(chan Message, 1024), done: make(chan struct{})}
	f.eps = append(f.eps, e)
	return e
}

// inprocEndpoint is one port of an in-process fabric.
type inprocEndpoint struct {
	rank  int
	fab   *inprocFabric
	inbox chan Message
	done  chan struct{}

	mu     sync.Mutex
	closed bool
}

// NewInProc builds an n-node in-process fabric and returns its
// endpoints. Message order is preserved per sender→receiver pair.
func NewInProc(n int) []Endpoint {
	fab := &inprocFabric{}
	out := make([]Endpoint, n)
	for i := range out {
		out[i] = fab.grow()
	}
	return out
}

func (e *inprocEndpoint) Rank() int { return e.rank }
func (e *inprocEndpoint) Size() int { return e.fab.size() }

// GrowEndpoint adds one node to the fabric and returns its endpoint.
func (e *inprocEndpoint) GrowEndpoint() (Endpoint, error) {
	return e.fab.grow(), nil
}

// CausalDelivery marks the channel fabric as causally ordered.
func (e *inprocEndpoint) CausalDelivery() bool { return true }

func (e *inprocEndpoint) Send(msg Message) error {
	peer := e.fab.peer(msg.To)
	if peer == nil {
		return fmt.Errorf("transport: bad destination %d", msg.To)
	}
	msg.From = e.rank
	// The inbox channel is never closed (closing with concurrent
	// senders is a race); Close signals through the done channel
	// instead, which also unblocks senders stuck on a full inbox.
	select {
	case <-peer.done:
		return fmt.Errorf("transport: peer %d closed", msg.To)
	default:
	}
	select {
	case peer.inbox <- msg:
		return nil
	case <-peer.done:
		return fmt.Errorf("transport: peer %d closed", msg.To)
	}
}

func (e *inprocEndpoint) Recv() (Message, error) {
	// Drain buffered messages before honouring Close, preserving the
	// closed-channel semantics the fabric previously had.
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

func (e *inprocEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		close(e.done)
	}
	return nil
}
