package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The host reference.
//
// The sandbox this benchmark runs on is not steady: for a minute or
// more at a time everything that touches memory or the kernel — a
// loopback round trip, the interpreter, the collector — runs 15–30 %
// slower, while nothing in the program has changed. No statistic over
// one run removes that, because a run is shorter than the episode. So
// every measured slice of load sits between two short slices of a
// fixed piece of work that belongs to the benchmark, not to the
// repository — raw loopback TCP ping-pong, the same kind of work the
// cluster's own traffic is — and every timing is scaled by how fast
// the host did that work just then, relative to refNominal. A host at
// nominal speed leaves the timings as measured; a change to the
// repository cannot move the reference, so it cannot hide in the
// scaling.
const (
	refConns = 2 // as many ping-pong pairs as client goroutines
	// refNominal is the reference's rate, in round trips per second,
	// that counts as speed 1: about what the two-core sandbox does when
	// it is quiet.
	refNominal = 180_000.0
	// refSlice is how long one reading of the reference takes.
	refSlice = 60 * time.Millisecond
	refBytes = 16
)

// hostRef is refConns loopback TCP connections, each with an echo
// goroutine on its far end.
type hostRef struct {
	conns  []net.Conn
	echoes sync.WaitGroup
}

func startHostRef() (*hostRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("host reference: %w", err)
	}
	defer ln.Close()
	h := &hostRef{}
	for i := 0; i < refConns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			h.stop()
			return nil, fmt.Errorf("host reference: %w", err)
		}
		h.conns = append(h.conns, c)
		far, err := ln.Accept()
		if err != nil {
			h.stop()
			return nil, fmt.Errorf("host reference: %w", err)
		}
		h.echoes.Add(1)
		go func() {
			defer h.echoes.Done()
			defer far.Close()
			buf := make([]byte, refBytes)
			for {
				if _, err := io.ReadFull(far, buf); err != nil {
					return // the near end was closed
				}
				if _, err := far.Write(buf); err != nil {
					return
				}
			}
		}()
	}
	return h, nil
}

// stop closes the connections and waits for the echo goroutines.
func (h *hostRef) stop() {
	for _, c := range h.conns {
		_ = c.Close()
	}
	h.echoes.Wait()
}

// speed runs the reference for refSlice and returns the host's speed:
// round trips per second completed over all connections, as a share of
// refNominal.
func (h *hostRef) speed() (float64, error) {
	rates := make([]float64, len(h.conns))
	errs := make([]error, len(h.conns))
	var wg sync.WaitGroup
	for i, c := range h.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, refBytes)
			start, n := time.Now(), 0
			for time.Since(start) < refSlice {
				if _, err := c.Write(buf); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(c, buf); err != nil {
					errs[i] = err
					return
				}
				n++
			}
			rates[i] = float64(n) / time.Since(start).Seconds()
		}()
	}
	wg.Wait()
	total := 0.0
	for i, r := range rates {
		if errs[i] != nil {
			return 0, fmt.Errorf("host reference: %w", errs[i])
		}
		total += r
	}
	return total / refNominal, nil
}
