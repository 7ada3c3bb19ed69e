package runtime

import (
	"autodist/internal/transport"

	"sync"
	"time"
)

// workerIdle is roughly how long a pooled handler goroutine may sit
// parked before the janitor retires it. Long enough that a steady
// request stream keeps its workers warm, short enough that idle
// clusters (and finished tests) release them promptly.
const workerIdle = time.Second

// workerPool recycles handler goroutines. The Serve loop dispatches
// every request to a goroutine; spawning a fresh one per message makes
// each handler re-grow its stack on the way into the VM call chain —
// profiles showed runtime.newstack/copystack eating double-digit CPU
// under request/response load. The pool hands tasks to previously used
// goroutines instead (most recently parked first, so the hottest stack
// is reused), and spawns a new one only when none is free. It never
// queues: a task always gets a goroutine immediately, preserving the
// spawn-per-message semantics — unbounded concurrency, no deadlock
// risk from handlers that block on object gates.
//
// A parked worker blocks on a plain channel receive — no timer, no
// select (an earlier timer-per-worker variant put selectgo and timer
// block/unblock on the hot path). Idle reaping is the janitor's job:
// one goroutine per active pool sweeps every workerIdle and closes
// workers parked through a full sweep. The janitor exits when the
// free list empties; parking a worker revives it, so a non-empty free
// list always has a janitor and nothing leaks.
//
// When the node's serve loop ends, close retires the pool at once:
// every parked worker and the janitor exit, and a worker still running
// a task exits when it finishes instead of parking. wait then returns
// once every goroutine the pool started has.
type workerPool struct {
	// exec runs one task; set once before the pool dispatches.
	exec func(transport.Message)

	mu   sync.Mutex
	free []poolWorker // parked workers, LIFO
	// gen counts janitor sweeps; a worker parked in gen g is retired
	// at the end of gen g+1 (idle between one and two sweep periods).
	gen       uint64
	janitorOn bool
	// closed is set by close; stop, made with the first janitor, is
	// closed with it.
	closed bool
	stop   chan struct{}
	// live counts the workers and the janitor.
	live sync.WaitGroup
}

// poolWorker is one parked goroutine: its task channel and the sweep
// generation it parked in.
type poolWorker struct {
	ch  chan transport.Message
	gen uint64
}

// run executes msg on a parked goroutine, or a new one if none is
// free. Handing the frame itself through the worker channel keeps the
// per-message dispatch allocation-free — a closure would put its
// capture block on the heap for every frame.
func (p *workerPool) run(msg transport.Message) {
	p.mu.Lock()
	var ch chan transport.Message
	if k := len(p.free); k > 0 {
		ch = p.free[k-1].ch
		p.free = p.free[:k-1]
	}
	p.mu.Unlock()
	if ch == nil {
		ch = make(chan transport.Message, 1)
		p.live.Add(1)
		go p.loop(ch)
	}
	ch <- msg
}

// loop is one pooled worker: run a task, park, wait for the next. The
// janitor retires a long-parked worker by closing its channel, and
// close every parked one.
func (p *workerPool) loop(ch chan transport.Message) {
	defer p.live.Done()
	for msg := range ch {
		p.exec(msg)
		if !p.park(ch) {
			return
		}
	}
}

// park returns a worker to the free list, reviving the janitor if it
// has exited (an empty free list is the only state it exits in, so a
// parked worker is always under watch). A closed pool parks nothing:
// it reports false, and the worker exits.
func (p *workerPool) park(ch chan transport.Message) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.free = append(p.free, poolWorker{ch: ch, gen: p.gen})
	if !p.janitorOn {
		p.janitorOn = true
		if p.stop == nil {
			p.stop = make(chan struct{})
		}
		p.live.Add(1)
		go p.janitor(p.stop)
	}
	return true
}

// close retires the pool: it closes every parked worker's channel and
// stops the janitor. The serve loop calls it as it ends, after its last
// run.
func (p *workerPool) close() {
	p.mu.Lock()
	p.closed = true
	parked := p.free
	p.free = nil
	if p.stop != nil {
		close(p.stop)
	}
	p.mu.Unlock()
	for _, w := range parked {
		close(w.ch)
	}
}

// wait returns once every goroutine the pool started has exited: after
// close, when the last task running has finished.
func (p *workerPool) wait() { p.live.Wait() }

// janitor retires workers that stayed parked through a full sweep
// period, until the free list empties or the pool closes. Channels are
// unlinked from the free list under the lock before being closed, so
// run can never race a send against the close.
func (p *workerPool) janitor(stop <-chan struct{}) {
	defer p.live.Done()
	tick := time.NewTimer(workerIdle)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-stop:
			return
		}
		tick.Reset(workerIdle)
		p.mu.Lock()
		var stale []poolWorker
		kept := p.free[:0]
		for _, w := range p.free {
			if w.gen < p.gen {
				stale = append(stale, w)
			} else {
				kept = append(kept, w)
			}
		}
		p.free = kept
		p.gen++
		if len(p.free) == 0 {
			// Nothing left to watch; exit. Busy workers park later
			// and restart the janitor then.
			p.janitorOn = false
			p.mu.Unlock()
			for _, w := range stale {
				close(w.ch)
			}
			return
		}
		p.mu.Unlock()
		for _, w := range stale {
			close(w.ch)
		}
	}
}
