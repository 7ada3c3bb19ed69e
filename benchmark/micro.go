package main

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	adrt "autodist/internal/runtime"
	"autodist/internal/transport"
	"autodist/internal/wire"
)

// micro holds the timings of single public functions of wire and
// transport, taken once per invocation of the benchmark. They do not
// depend on the workload; rpc_storm and fused_sweep pay them 128 times
// per op.
type micro struct {
	frameEncodeNS  float64
	frameDecodeNS  float64
	depSeqCodecNS  float64
	allocsPerFrame float64
	inprocRTT      float64 // µs
	tcpRTT         float64 // µs
	reliableRTT    float64 // µs
	tcpSendNS      float64
	tcpSendAllocs  float64
}

// pingRequest is the DEPENDENCE request rpc_storm sends: one method
// call with one int argument.
func pingRequest() *wire.DepRequest {
	return &wire.DepRequest{ID: 129, Class: "Sink", Kind: 3, Member: "ping(I)I",
		Args: []wire.Value{{Kind: wire.KInt, Int: stormBaseLo + 7}}}
}

// perCall times n calls of fn and returns nanoseconds per call.
func perCall(n int, fn func()) float64 {
	fn()
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func measureWire(m *micro) error {
	payload := pingRequest().Encode()
	frame := wire.Frame{From: 0, To: 1, Tag: 70000, TID: 900, Kind: adrt.KindDependence, Payload: payload}
	buf := wire.AppendFrame(nil, &frame)
	if f, rest, err := wire.DecodeFrameBuf(buf); err != nil || len(rest) != 0 || f.Tag != frame.Tag {
		return fmt.Errorf("frame round trip: %v", err)
	}
	const n = 200_000
	m.frameEncodeNS = perCall(n, func() { buf = wire.AppendFrame(buf[:0], &frame) })
	m.frameDecodeNS = perCall(n, func() { _, _, _ = wire.DecodeFrameBuf(buf) })
	m.allocsPerFrame = testing.AllocsPerRun(2000, func() {
		buf = wire.AppendFrame(buf[:0], &frame)
		_, _, _ = wire.DecodeFrameBuf(buf)
	})

	seq := wire.DepSeq{}
	for _, f := range []string{"p0", "p1", "p2", "p3"} {
		seq.Reqs = append(seq.Reqs, wire.DepRequest{ID: 129, Class: "Sink", Kind: 1, Member: f})
	}
	var codecErr error
	m.depSeqCodecNS = perCall(n/4, func() {
		b := seq.Encode()
		if _, err := wire.DecodeDepSeq(b); err != nil {
			codecErr = err
		}
		wire.PutBuf(b)
	})
	return codecErr
}

// pair is two connected endpoints with an echo loop on the second.
type pair struct {
	eps  []transport.Endpoint
	done chan struct{}
}

// startEcho returns the payload of every frame node 1 receives to node
// 0 under the same tag, the way a serve loop answers a request.
func startEcho(eps []transport.Endpoint) *pair {
	p := &pair{eps: eps, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for {
			msg, err := eps[1].Recv()
			if err != nil {
				return
			}
			if eps[1].Send(transport.Message{To: 0, Tag: msg.Tag, TID: msg.TID, Kind: adrt.KindResponse, Payload: msg.Payload}) != nil {
				return
			}
		}
	}()
	return p
}

func (p *pair) close() {
	for _, ep := range p.eps {
		_ = ep.Close()
	}
	<-p.done
}

// roundTrips sends n requests one after another, each waiting for its
// echo, and returns the median round-trip time in microseconds.
func (p *pair) roundTrips(n int) (float64, error) {
	payload := pingRequest().Encode()
	rtts := make([]float64, 0, n)
	for i := 0; i < n+n/10; i++ {
		// Over a copying fabric Send is done with the payload when it
		// returns; over the in-process fabric the echo hands the same
		// slice back. Either way it is ours again after Recv.
		t0 := time.Now()
		if err := p.eps[0].Send(transport.Message{To: 1, Tag: uint64(i + 1), TID: 900, Kind: adrt.KindDependence, Payload: payload}); err != nil {
			return 0, err
		}
		msg, err := p.eps[0].Recv()
		if err != nil {
			return 0, err
		}
		if msg.Tag != uint64(i+1) {
			return 0, fmt.Errorf("echo of tag %d came back as %d", i+1, msg.Tag)
		}
		if i >= n/10 { // the first tenth warms the connection and the pools
			rtts = append(rtts, us(time.Since(t0)))
		}
	}
	return median(rtts), nil
}

func measureTransport(m *micro) error {
	const trips = 4000
	fabrics := []struct {
		out  *float64
		make func() ([]transport.Endpoint, error)
	}{
		{&m.inprocRTT, func() ([]transport.Endpoint, error) { return transport.NewInProc(2), nil }},
		{&m.tcpRTT, func() ([]transport.Endpoint, error) { return transport.NewTCPCluster(2) }},
		{&m.reliableRTT, func() ([]transport.Endpoint, error) {
			eps, err := transport.NewTCPCluster(2)
			for i := range eps {
				eps[i] = transport.NewReliable(eps[i], transport.ReliableOptions{})
			}
			return eps, err
		}},
	}
	for _, f := range fabrics {
		eps, err := f.make()
		if err != nil {
			return err
		}
		p := startEcho(eps)
		*f.out, err = p.roundTrips(trips)
		p.close()
		if err != nil {
			return err
		}
	}

	// One-way send cost: the receiver only drains.
	eps, err := transport.NewTCPCluster(2)
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			msg, err := eps[1].Recv()
			if err != nil {
				return
			}
			wire.PutBuf(msg.Payload)
		}
	}()
	msg := transport.Message{To: 1, Kind: adrt.KindDependence, Tag: 42, TID: 3, Payload: make([]byte, 128)}
	var sendErr error
	send := func() {
		if err := eps[0].Send(msg); err != nil {
			sendErr = err
		}
	}
	for i := 0; i < 2000; i++ {
		send()
	}
	m.tcpSendNS = perCall(100_000, send)
	// The pools must not be flushed by a collection mid-measurement.
	gc := debug.SetGCPercent(-1)
	m.tcpSendAllocs = testing.AllocsPerRun(5000, send)
	debug.SetGCPercent(gc)
	for _, ep := range eps {
		_ = ep.Close()
	}
	<-drained
	return sendErr
}

func measureMicro() (*micro, error) {
	m := &micro{}
	if err := measureWire(m); err != nil {
		return nil, fmt.Errorf("wire micro-timings: %w", err)
	}
	if err := measureTransport(m); err != nil {
		return nil, fmt.Errorf("transport micro-timings: %w", err)
	}
	return m, nil
}

func (m *micro) report(mt map[string]float64) {
	mt["wire.frame_encode_ns"] = m.frameEncodeNS
	mt["wire.frame_decode_ns"] = m.frameDecodeNS
	mt["wire.depseq_codec_ns"] = m.depSeqCodecNS
	mt["wire.allocs_per_frame"] = m.allocsPerFrame
	mt["transport.inproc_rtt_us"] = m.inprocRTT
	mt["transport.tcp_rtt_us"] = m.tcpRTT
	mt["transport.reliable_rtt_us"] = m.reliableRTT
	mt["transport.tcp_send_ns"] = m.tcpSendNS
	mt["transport.tcp_send_allocs"] = m.tcpSendAllocs
}
