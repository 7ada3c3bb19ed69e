package transport

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"autodist/internal/wire"
)

// TCPOptions configures the TCP fabric. It has no fields: the fabric
// has one byte path (every connection runs the write combiner, see
// tcpConn), so there is nothing left to choose. The type and
// NewTCPClusterOpts remain so callers written against the options form
// keep compiling.
type TCPOptions struct{}

// DefaultTCPOptions returns the fabric's (only) configuration.
func DefaultTCPOptions() TCPOptions { return TCPOptions{} }

// readBufSize sizes each connection's read buffer, so the read loop
// drains whole coalesced batches per syscall and decodes ahead of inbox
// consumption.
const readBufSize = 64 << 10

// maxPending bounds a connection's unwritten batch in bytes; senders
// beyond it wait for the drain (backpressure instead of unbounded
// buffering).
const maxPending = 1 << 20

// closeFlushTimeout bounds how long Close waits for a connection's
// pending batch to reach the socket before tearing it down anyway.
const closeFlushTimeout = 2 * time.Second

// combineYields bounds how many scheduler yields the flusher spends
// growing a batch before writing it out (see flusherLoop).
const combineYields = 4

// tcpEndpoint is one node of a TCP fabric. Every node listens on its
// own address; connections are dialled lazily per destination and each
// direction uses its own connection (dialled conns are write-only,
// accepted conns are read-only), so no handshake protocol is needed
// beyond the frame envelope carrying the sender rank. Frames use the
// shared wire codec (length-prefixed binary), the same format family as
// the runtime's payload bodies.
type tcpEndpoint struct {
	rank int
	book *addrBook

	ln    net.Listener
	inbox chan Message

	// done closes on Close. Read loops select on it around the inbox
	// send, so a full inbox with no receiver can never wedge Close —
	// close-checking must not span a blocking channel send (the old
	// closeMu design deadlocked exactly there).
	done      chan struct{}
	closeOnce sync.Once

	// mu guards the connection table and the accepted list only —
	// never a dial or a write. Dials run outside it (a slow peer must
	// not stall sends to every other peer) and each connection has its
	// own write combiner, so senders coordinate per destination, not
	// per endpoint.
	mu       sync.Mutex
	conns    map[int]*tcpConn
	accepted []net.Conn

	wg sync.WaitGroup
}

// tcpConn is one outgoing connection with its write combiner: senders
// append encoded frames to pending under mu — no syscall on the send
// path — and a dedicated flusher goroutine drains the batch into
// single large Writes, double-buffering so steady-state sends allocate
// nothing. Batching is self-clocking at goroutine-scheduling
// granularity, with no timer: while the flusher is off-CPU or inside a
// Write, every concurrent sender's frames accumulate and leave in the
// next syscall. (A leader-based inline variant — first sender with no
// drain in progress writes the batch itself — was measured first: it
// saves the goroutine handoff on an idle connection, but under
// saturated request/response load on few cores a non-blocking inline
// Write completes before any other sender gets scheduled, so batches
// degenerate to one frame and the combiner becomes pure overhead. The
// flusher's handoff is what creates the batching window.) Whole
// frames stay contiguous and FIFO per destination, exactly as with
// one locked Write per frame.
type tcpConn struct {
	c  net.Conn
	mu sync.Mutex
	// work wakes the flusher (pending became non-empty, or close);
	// drained wakes senders blocked on backpressure and flush/close
	// waiters (a batch reached the socket, or the connection died).
	work    *sync.Cond
	drained *sync.Cond
	// pending is the unwritten batch; spare is the previously written
	// buffer, kept for ping-pong reuse.
	pending []byte
	spare   []byte
	writing bool // flusher is inside Write
	closed  bool
	err     error
}

func newTCPConn(c net.Conn) *tcpConn {
	tc := &tcpConn{c: c}
	tc.work = sync.NewCond(&tc.mu)
	tc.drained = sync.NewCond(&tc.mu)
	return tc
}

var errConnClosed = fmt.Errorf("transport: connection closed")

// addrBook is a TCP cluster's rank→address table. Endpoints built
// together (NewTCPCluster, GrowEndpoint) share one book, so admitting a
// node makes every member's Size() and routing reflect the larger
// cluster at once.
type addrBook struct {
	mu    sync.RWMutex
	addrs []string
}

func (b *addrBook) size() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.addrs)
}

func (b *addrBook) addr(i int) (string, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if i < 0 || i >= len(b.addrs) {
		return "", false
	}
	return b.addrs[i], true
}

func (b *addrBook) add(addr string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addrs = append(b.addrs, addr)
	return len(b.addrs) - 1
}

// enqueue appends one frame to the batch and wakes the flusher. Senders
// wait for a drain while the batch holds maxPending bytes.
func (c *tcpConn) enqueue(f *wire.Frame) error {
	c.mu.Lock()
	for c.err == nil && !c.closed && len(c.pending) >= maxPending {
		c.drained.Wait()
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	if c.closed {
		c.mu.Unlock()
		return errConnClosed
	}
	c.pending = wire.AppendFrame(c.pending, f)
	c.work.Signal()
	c.mu.Unlock()
	return nil
}

// flusherLoop is the connection's drain goroutine: it swaps the
// pending batch against the spare buffer, writes it out in one call
// (one syscall), and goes back to sleep when the queue is empty. It
// exits once the connection is closed and drained, or on the first
// write error.
func (c *tcpConn) flusherLoop() {
	c.mu.Lock()
	for {
		for c.err == nil && !c.closed && len(c.pending) == 0 {
			c.work.Wait()
		}
		if c.err != nil || (c.closed && len(c.pending) == 0) {
			c.drained.Broadcast()
			c.mu.Unlock()
			return
		}
		// Combine window without a timer: yield before draining, so
		// every already-runnable producer (handlers replying, the read
		// loop delivering, logical threads issuing requests) gets to
		// append its frame to this batch first, and keep yielding
		// while frames are still arriving (bounded, so a steady
		// producer cannot starve the drain). On an idle connection the
		// first yield adds nothing and the batch leaves immediately;
		// under load this is what grows batches past one frame.
		for n, i := len(c.pending), 0; i < combineYields; i++ {
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
			if len(c.pending) == n {
				break
			}
			n = len(c.pending)
		}
		buf := c.pending
		c.pending = c.spare[:0]
		c.spare = nil
		c.writing = true
		c.mu.Unlock()
		_, werr := c.c.Write(buf)
		c.mu.Lock()
		c.spare = buf[:0]
		c.writing = false
		if werr != nil && c.err == nil {
			c.err = werr
		}
		// The batch left (or died); wake backpressured senders and
		// flush/close waiters.
		c.drained.Broadcast()
	}
}

// flush blocks until every enqueued frame has reached the socket (or
// the connection died). A live connection always has its flusher, so
// this terminates.
func (c *tcpConn) flush() error {
	c.mu.Lock()
	for c.err == nil && !c.closed && (c.writing || len(c.pending) > 0) {
		c.drained.Wait()
	}
	err := c.err
	c.mu.Unlock()
	return err
}

// close drains the batch (bounded by closeFlushTimeout via a write
// deadline, so a wedged peer cannot hang Close) and tears the
// connection down.
func (c *tcpConn) close() {
	c.mu.Lock()
	c.closed = true
	c.work.Broadcast()
	c.drained.Broadcast()
	draining := c.writing || len(c.pending) > 0
	c.mu.Unlock()
	if draining {
		_ = c.c.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
		c.mu.Lock()
		for c.err == nil && (c.writing || len(c.pending) > 0) {
			c.drained.Wait()
		}
		c.mu.Unlock()
	}
	_ = c.c.Close()
}

// newTCPNodeBook creates the endpoint for rank in the cluster whose
// addresses book holds. The listener for this rank is passed in, so
// callers can bind ":0" and exchange real addresses first.
func newTCPNodeBook(rank int, book *addrBook, ln net.Listener) (Endpoint, error) {
	if rank < 0 || rank >= book.size() {
		return nil, fmt.Errorf("transport: rank %d out of range", rank)
	}
	e := &tcpEndpoint{
		rank:  rank,
		book:  book,
		ln:    ln,
		inbox: make(chan Message, 1024),
		done:  make(chan struct{}),
		conns: map[int]*tcpConn{},
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// GrowEndpoint adds one node to the cluster: it binds a fresh
// ephemeral listener, registers its address in the shared book (so
// every endpoint built from the same book immediately routes to it)
// and returns the new endpoint with the next rank.
func (e *tcpEndpoint) GrowEndpoint() (Endpoint, error) {
	ln, addr, err := Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rank := e.book.add(addr)
	ep, err := newTCPNodeBook(rank, e.book, ln)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	return ep, nil
}

// Listen binds a TCP listener on addr (use "127.0.0.1:0" for an
// ephemeral port) and returns it with its resolved address.
func Listen(addr string) (net.Listener, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	return ln, ln.Addr().String(), nil
}

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		e.accepted = append(e.accepted, conn)
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

// readLoop decodes one inbound connection. The sized read buffer
// drains whole coalesced batches per syscall and lets decoding run
// ahead of inbox consumption (the inbox channel is the pipeline stage
// between decode and the runtime's serve loop). Frame payloads are
// copied into pooled buffers — the consumer releases them with
// wire.PutBuf once the message is handled — so the decode scratch is
// reused frame after frame and steady-state receive allocates nothing.
func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close()
	br := bufio.NewReaderSize(conn, readBufSize)
	var scratch []byte
	for {
		f, sc, err := wire.ReadFrameScratch(br, scratch)
		scratch = sc
		if err != nil || !e.deliver(&f) {
			return
		}
	}
}

// deliver hands one decoded frame to the inbox, copying the payload
// out of the decode scratch into a pooled buffer the consumer owns. It
// never blocks past Close: the done select is what keeps a full inbox
// from wedging endpoint teardown.
func (e *tcpEndpoint) deliver(f *wire.Frame) bool {
	var p []byte
	if len(f.Payload) > 0 {
		p = append(wire.GetBuf(), f.Payload...)
	}
	msg := Message{From: f.From, To: f.To, Tag: f.Tag, TID: f.TID, Kind: f.Kind, Seq: f.Seq, Ack: f.Ack, Dedup: f.Dedup, View: f.View, Time: f.Time, Payload: p}
	// Fast path: a non-blocking send skips the two-case select
	// machinery whenever the inbox has room (the common case with a
	// live consumer).
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

func (e *tcpEndpoint) Rank() int { return e.rank }
func (e *tcpEndpoint) Size() int { return e.book.size() }

// SendCopiesPayload reports that Send consumes msg.Payload before
// returning (the bytes are appended to a connection batch or written),
// so callers may recycle the payload buffer immediately — see
// transport.CopiesPayload.
func (e *tcpEndpoint) SendCopiesPayload() bool { return true }

func (e *tcpEndpoint) Send(msg Message) error {
	if msg.To < 0 || msg.To >= e.book.size() {
		return fmt.Errorf("transport: bad destination %d", msg.To)
	}
	msg.From = e.rank
	frame := wire.Frame{From: msg.From, To: msg.To, Tag: msg.Tag, TID: msg.TID, Kind: msg.Kind, Seq: msg.Seq, Ack: msg.Ack, Dedup: msg.Dedup, View: msg.View, Time: msg.Time, Payload: msg.Payload}
	conn, err := e.connTo(msg.To)
	if err != nil {
		return fmt.Errorf("transport: send to node %d (frame kind %d): %w", msg.To, msg.Kind, err)
	}
	if err := conn.enqueue(&frame); err != nil {
		e.dropConn(msg.To, conn)
		return fmt.Errorf("transport: send to node %d (frame kind %d): %w", msg.To, msg.Kind, err)
	}
	return nil
}

// Flush blocks until every frame enqueued so far has been handed to
// the kernel on every connection — the transport-level flush barrier
// runtime shutdown uses so no frame is stranded in a write batch.
func (e *tcpEndpoint) Flush() error {
	e.mu.Lock()
	conns := make([]*tcpConn, 0, len(e.conns))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	var first error
	for _, c := range conns {
		if err := c.flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// dropConn removes a broken connection from the table (idempotent —
// the loser of a concurrent drop finds someone else's entry or none)
// and closes its socket so the peer's read loop learns promptly.
func (e *tcpEndpoint) dropConn(to int, conn *tcpConn) {
	e.mu.Lock()
	if e.conns[to] == conn {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	_ = conn.c.Close()
}

// connTo returns the live connection to a peer, dialling it outside
// the endpoint lock if none exists. Concurrent first sends may race to
// dial; the loser's connection is closed and the table's entry wins,
// so every sender funnels through one connection per destination.
func (e *tcpEndpoint) connTo(to int) (*tcpConn, error) {
	e.mu.Lock()
	conn := e.conns[to]
	e.mu.Unlock()
	if conn != nil {
		return conn, nil
	}
	addr, ok := e.book.addr(to)
	if !ok {
		return nil, fmt.Errorf("transport: bad destination %d", to)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial node %d: %w", to, err)
	}
	e.mu.Lock()
	if existing := e.conns[to]; existing != nil {
		e.mu.Unlock()
		_ = c.Close()
		return existing, nil
	}
	conn = newTCPConn(c)
	e.conns[to] = conn
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		conn.flusherLoop()
	}()
	e.mu.Unlock()
	return conn, nil
}

func (e *tcpEndpoint) Recv() (Message, error) {
	// Drain buffered messages before honouring Close, like the
	// in-process fabric.
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

func (e *tcpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		_ = e.ln.Close()
		e.mu.Lock()
		conns := make([]*tcpConn, 0, len(e.conns))
		for _, c := range e.conns {
			conns = append(conns, c)
		}
		accepted := append([]net.Conn(nil), e.accepted...)
		e.mu.Unlock()
		for _, c := range conns {
			c.close()
		}
		for _, c := range accepted {
			_ = c.Close()
		}
		e.wg.Wait()
	})
	return nil
}

// NewTCPCluster is a convenience for tests and single-host runs: it
// binds n ephemeral listeners on localhost and returns connected
// endpoints.
func NewTCPCluster(n int) ([]Endpoint, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, addr, err := Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = addr
	}
	book := &addrBook{addrs: addrs}
	eps := make([]Endpoint, n)
	for i := 0; i < n; i++ {
		ep, err := newTCPNodeBook(i, book, lns[i])
		if err != nil {
			return nil, err
		}
		eps[i] = ep
	}
	return eps, nil
}

// NewTCPClusterOpts is NewTCPCluster in the options form (see
// TCPOptions).
func NewTCPClusterOpts(n int, _ TCPOptions) ([]Endpoint, error) {
	return NewTCPCluster(n)
}
