package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	adrt "autodist/internal/runtime"
	"autodist/internal/transport"
)

// frameEvent is one frame crossing the boundary between a node's
// runtime and its endpoint, as the recording endpoint saw it.
type frameEvent struct {
	at    time.Duration // since the recorder started; for a send, when Send was called
	took  time.Duration // how long the Send call took (sends only)
	tag   uint64
	tid   uint64
	bytes int32
	node  int16 // whose endpoint saw the frame
	peer  int16 // destination of a send, origin of a receive
	kind  uint8
	send  bool
}

// recorder collects the frame events of one deployment. Recording is
// off until enable is called, so provisioning and warm-up leave no
// events behind.
type recorder struct {
	start time.Time
	on    atomic.Bool
	eps   []*recordingEndpoint
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// wrap puts a recording endpoint in front of ep.
func (r *recorder) wrap(ep transport.Endpoint) transport.Endpoint {
	re := &recordingEndpoint{inner: ep, rec: r}
	r.eps = append(r.eps, re)
	return re
}

// events returns everything recorded, ordered by time.
func (r *recorder) events() []frameEvent {
	var all []frameEvent
	for _, ep := range r.eps {
		ep.mu.Lock()
		all = append(all, ep.sends...)
		all = append(all, ep.recvs...)
		ep.mu.Unlock()
	}
	sortEvents(all)
	return all
}

func sortEvents(events []frameEvent) {
	slices.SortFunc(events, func(a, b frameEvent) int { return cmp.Compare(a.at, b.at) })
}

// recordingEndpoint is the benchmark's own transport.Endpoint: it
// forwards every call to the endpoint it wraps and notes each frame.
// It forwards every optional interface the runtime probes for as well,
// so a wrapped deployment runs the same protocol as a bare one (a
// wrapper that hid CausalDelivery, say, would make the runtime add
// acknowledgement frames).
type recordingEndpoint struct {
	inner transport.Endpoint
	rec   *recorder

	mu    sync.Mutex // guards sends; Send is called from many goroutines
	sends []frameEvent
	// recvs is appended by the one goroutine that calls Recv, but read
	// under mu by events.
	recvs []frameEvent
}

func (e *recordingEndpoint) Rank() int    { return e.inner.Rank() }
func (e *recordingEndpoint) Size() int    { return e.inner.Size() }
func (e *recordingEndpoint) Close() error { return e.inner.Close() }

func (e *recordingEndpoint) Send(msg transport.Message) error {
	if !e.rec.on.Load() {
		return e.inner.Send(msg)
	}
	// Note the frame's fields first: over a non-copying fabric the
	// payload belongs to the receiver once Send returns.
	ev := frameEvent{
		node: int16(e.inner.Rank()), peer: int16(msg.To), send: true,
		kind: msg.Kind, tag: msg.Tag, tid: msg.TID, bytes: int32(len(msg.Payload)),
	}
	t0 := time.Now()
	err := e.inner.Send(msg)
	ev.at, ev.took = t0.Sub(e.rec.start), time.Since(t0)
	e.mu.Lock()
	e.sends = append(e.sends, ev)
	e.mu.Unlock()
	return err
}

func (e *recordingEndpoint) Recv() (transport.Message, error) {
	msg, err := e.inner.Recv()
	if err == nil && e.rec.on.Load() {
		ev := frameEvent{
			at: time.Since(e.rec.start), node: int16(e.inner.Rank()), peer: int16(msg.From),
			kind: msg.Kind, tag: msg.Tag, tid: msg.TID, bytes: int32(len(msg.Payload)),
		}
		e.mu.Lock()
		e.recvs = append(e.recvs, ev)
		e.mu.Unlock()
	}
	return msg, err
}

// The optional interfaces of internal/transport, each forwarded through
// the package's own probe so a fabric without the capability keeps its
// default.
func (e *recordingEndpoint) SendCopiesPayload() bool { return transport.CopiesPayload(e.inner) }
func (e *recordingEndpoint) CausalDelivery() bool    { return transport.Causal(e.inner) }
func (e *recordingEndpoint) Flush() error            { return transport.Flush(e.inner) }
func (e *recordingEndpoint) RetireRank(rank int)     { transport.RetirePeer(e.inner, rank) }
func (e *recordingEndpoint) FaultCounters() transport.FaultStats {
	f, _ := transport.Faults(e.inner)
	return f
}
func (e *recordingEndpoint) GrowEndpoint() (transport.Endpoint, error) {
	grown, err := transport.Grow(e.inner)
	if err != nil {
		return nil, err
	}
	return e.rec.wrap(grown), nil
}

// accessSpan is one request/response exchange: the access span runs
// from the requester's Send of the request to its Recv of the matching
// response, and the serve span inside it from the server's Recv of the
// request to its Send of the response. The two ends are matched by the
// requester's rank and the frame tag, which the response echoes; the
// thread id ties the span to the op that caused it.
type accessSpan struct {
	tid        uint64
	kind       uint8 // of the request
	from, to   int16
	start, end time.Duration
	serveStart time.Duration
	serveEnd   time.Duration
	reqBytes   int32
	respBytes  int32
}

func (s accessSpan) rtt() time.Duration     { return s.end - s.start }
func (s accessSpan) serve() time.Duration   { return s.serveEnd - s.serveStart }
func (s accessSpan) transit() time.Duration { return s.rtt() - s.serve() }

func isResponse(kind uint8) bool { return kind == adrt.KindResponse || kind == adrt.KindReplicaAck }

// pairSpans matches request and response frames into access spans.
// events must be ordered by time. Exchanges that were not seen whole
// (a frame before recording started, a one-way frame such as SHUTDOWN)
// yield no span.
func pairSpans(events []frameEvent) []accessSpan {
	type key struct {
		requester int16
		tag       uint64
	}
	type partial struct {
		span  accessSpan
		stage int // 0 unknown exchange, 1 request sent, 2 request received, 3 response sent
	}
	open := map[key]partial{}
	var out []accessSpan
	for _, ev := range events {
		switch {
		case ev.send && !isResponse(ev.kind):
			open[key{ev.node, ev.tag}] = partial{stage: 1, span: accessSpan{
				tid: ev.tid, kind: ev.kind, from: ev.node, to: ev.peer, start: ev.at, reqBytes: ev.bytes,
			}}
		case !ev.send && !isResponse(ev.kind):
			k := key{ev.peer, ev.tag}
			if p := open[k]; p.stage == 1 && p.span.to == ev.node && p.span.tid == ev.tid {
				p.span.serveStart, p.stage = ev.at, 2
				open[k] = p
			}
		case ev.send:
			k := key{ev.peer, ev.tag}
			if p := open[k]; p.stage == 2 && p.span.to == ev.node && p.span.tid == ev.tid {
				p.span.serveEnd, p.span.respBytes, p.stage = ev.at, ev.bytes, 3
				open[k] = p
			}
		default:
			k := key{ev.node, ev.tag}
			if p := open[k]; p.stage == 3 && p.span.to == ev.peer && p.span.tid == ev.tid {
				p.span.end = ev.at
				out = append(out, p.span)
				delete(open, k)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// opSpan is one op as its client saw it. tid is filled in by matchOps.
type opSpan struct {
	start, end time.Duration
	tid        uint64
}

// matchOps gives every op the thread id of the invocation that served
// it. Cluster.Invoke does not return the id, but it hands ids out in
// admission order, so the ops sorted by start time and the ids sorted
// by value line up; an op is accepted for an id only if the starter's
// accesses under that id all fall inside the op, and at most `clients`
// ops are in flight to choose from. Ops and ids that do not line up
// (two clients admitted within the same microsecond, swapped) stay
// unmatched with tid 0 and are left out of the per-op figures.
func matchOps(ops []opSpan, spans []accessSpan) {
	type interval struct{ first, last time.Duration }
	byTID := map[uint64]*interval{}
	var tids []uint64
	for _, s := range spans {
		if s.from != 0 || s.tid == 0 {
			continue
		}
		iv := byTID[s.tid]
		if iv == nil {
			byTID[s.tid] = &interval{s.start, s.end}
			tids = append(tids, s.tid)
			continue
		}
		iv.first, iv.last = min(iv.first, s.start), max(iv.last, s.end)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
	next := 0 // ops before next are matched or given up
	for _, tid := range tids {
		iv := byTID[tid]
		for next < len(ops) && (ops[next].tid != 0 || ops[next].end < iv.first) {
			next++
		}
		for i := next; i < len(ops) && i < next+clients; i++ {
			if ops[i].tid == 0 && ops[i].start <= iv.first && iv.last <= ops[i].end {
				ops[i].tid = tid
				break
			}
		}
	}
}

// traceSummary is what the traced run contributes to the report.
type traceSummary struct {
	ops, matchedOps int
	accessesPerOp   float64
	rttP50, rttP95  float64 // µs
	serveP50        float64 // µs
	transitP50      float64 // µs
	sendCallP50     float64 // µs
	opLocalSelf     float64 // µs, median over matched ops of op − Σ its starter-issued accesses
	framesDep       float64 // per op, request and response frames of DEPENDENCE exchanges
	framesDepSeq    float64
	framesBatch     float64
	framesCoherence float64
	payloadP50      float64 // bytes, over every frame sent
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// summarise turns the recorded events and the clients' op spans into
// the per-layer figures.
func summarise(events []frameEvent, spans []accessSpan, ops []opSpan) traceSummary {
	matchOps(ops, spans)
	s := traceSummary{ops: len(ops)}
	if len(ops) == 0 {
		return s
	}
	var rtt, serve, transit []float64
	accessTime := map[uint64]time.Duration{}
	var perKind [256]int
	for _, sp := range spans {
		perKind[sp.kind] += 2
		if sp.tid == 0 {
			continue
		}
		rtt = append(rtt, us(sp.rtt()))
		serve = append(serve, us(sp.serve()))
		transit = append(transit, us(sp.transit()))
		if sp.from == 0 {
			accessTime[sp.tid] += sp.rtt()
		}
	}
	sort.Float64s(rtt)
	n := float64(len(ops))
	s.accessesPerOp = float64(len(rtt)) / n
	s.rttP50, s.rttP95 = percentile(rtt, 50), percentile(rtt, 95)
	s.serveP50 = median(serve)
	s.transitP50 = median(transit)
	s.framesDep = float64(perKind[adrt.KindDependence]) / n
	s.framesDepSeq = float64(perKind[adrt.KindDepSeq]) / n
	s.framesBatch = float64(perKind[adrt.KindDependenceBatch]) / n
	s.framesCoherence = float64(perKind[adrt.KindReplicate]+perKind[adrt.KindInvalidate]) / n

	var sendCall, payload, self []float64
	for _, ev := range events {
		if ev.send {
			sendCall = append(sendCall, us(ev.took))
			payload = append(payload, float64(ev.bytes))
		}
	}
	s.sendCallP50, s.payloadP50 = median(sendCall), median(payload)
	for _, o := range ops {
		if o.tid != 0 {
			s.matchedOps++
			self = append(self, us(o.end-o.start-accessTime[o.tid]))
		}
	}
	s.opLocalSelf = median(self)
	return s
}

func (s traceSummary) report(mt map[string]float64) {
	mt["runtime.accesses_per_op"] = s.accessesPerOp
	mt["runtime.access_rtt_p50_us"] = s.rttP50
	mt["runtime.access_rtt_p95_us"] = s.rttP95
	mt["runtime.serve_p50_us"] = s.serveP50
	mt["transport.transit_p50_us"] = s.transitP50
	mt["transport.send_call_p50_us"] = s.sendCallP50
	mt["runtime.op_local_self_us"] = s.opLocalSelf
	mt["wire.frames_dep_per_op"] = s.framesDep
	mt["wire.frames_depseq_per_op"] = s.framesDepSeq
	mt["wire.frames_batch_per_op"] = s.framesBatch
	mt["wire.frames_coherence_per_op"] = s.framesCoherence
	mt["wire.payload_bytes_p50"] = s.payloadP50
}

// traceDumpOps bounds the trace file: the figures come from every op
// of the traced window, the file holds the span trees of the first few.
const traceDumpOps = 64

type dumpSpan struct {
	Name    string  `json:"name"`
	TID     uint64  `json:"tid"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Kind    uint8   `json:"frame_kind,omitempty"`
	From    int16   `json:"from"`
	To      int16   `json:"to"`
	Bytes   int32   `json:"bytes,omitempty"`
}

// writeTrace writes the span trees of the first traceDumpOps matched
// ops — op → access → serve, all spans of one op under its thread id —
// to out/trace-<workload>.json beside the benchmark's sources.
func writeTrace(dir, workload string, seed int64, spans []accessSpan, ops []opSpan) (string, error) {
	keep := map[uint64]bool{}
	var dump []dumpSpan
	for _, o := range ops {
		if o.tid == 0 || len(keep) == traceDumpOps {
			continue
		}
		keep[o.tid] = true
		dump = append(dump, dumpSpan{Name: "op", TID: o.tid, StartUS: us(o.start), DurUS: us(o.end - o.start)})
	}
	for _, sp := range spans {
		if !keep[sp.tid] {
			continue
		}
		dump = append(dump,
			dumpSpan{Name: "access", TID: sp.tid, Parent: "op", StartUS: us(sp.start), DurUS: us(sp.rtt()),
				Kind: sp.kind, From: sp.from, To: sp.to, Bytes: sp.reqBytes},
			dumpSpan{Name: "serve", TID: sp.tid, Parent: "access", StartUS: us(sp.serveStart), DurUS: us(sp.serve()),
				Kind: sp.kind, From: sp.to, To: sp.from, Bytes: sp.respBytes})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": dump})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
