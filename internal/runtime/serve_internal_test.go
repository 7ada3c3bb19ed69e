package runtime

import (
	"runtime/debug"
	"strings"
	"testing"

	"autodist/internal/analysis"
	"autodist/internal/compile"
	"autodist/internal/rewrite"
	"autodist/internal/transport"
	"autodist/internal/wire"
)

const pingSource = `
class Sink {
	int ping(int v) { return v + 1; }
}
class Main {
	static Sink s;
	static void main() { Main.s = new Sink(); }
	static int storm(int base) { return Main.s.ping(base); }
}`

// pingServer builds a 2-node cluster of pingSource with Sink on node 1,
// none of it serving, and a Sink exported on node 1. The test calls
// node 1's handler itself and reads the reply off node 0's endpoint.
func pingServer(t *testing.T) (n *Node, node0 transport.Endpoint, sink int64, ping *site) {
	t.Helper()
	bp, _, err := compile.CompileSource(pingSource)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.ODG.Graph.Vertices() {
		v.Part = 0
	}
	for _, s := range res.ODG.Sites {
		if s.Allocated == "Sink" {
			res.ODG.Graph.Vertex(s.Node).Part = 1
		}
	}
	rw, err := rewrite.Rewrite(bp, res, 2)
	if err != nil {
		t.Fatal(err)
	}
	eps := transport.NewInProc(2)
	var out strings.Builder
	c, err := NewCluster(rw.Nodes, rw.Plan, eps, Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeEndpoints(c.Nodes) })
	n = c.Nodes[1]
	obj := n.VM.NewObject(n.VM.Class("Sink"))
	n.objs.export(obj)
	return n, eps[0], obj.ID, testSite(t, n, rewrite.InvokeMethodHasReturn, "Sink", "ping", "(I)I")
}

// serveOne hands node n one request frame and returns the reply node 0
// received, decoded.
func serveOne(t *testing.T, n *Node, node0 transport.Endpoint, kind uint8, payload []byte) wire.DepSeqResponse {
	t.Helper()
	n.handle(transport.Message{From: 0, To: n.Rank, Tag: 1, TID: 5, Kind: kind, Payload: payload})
	wire.PutBuf(payload)
	reply, err := node0.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var out wire.DepSeqResponse
	if err := wire.DecodeDepSeqResponseInto(reply.Payload, &out); err != nil {
		t.Fatal(err)
	}
	wire.PutBuf(reply.Payload)
	return out
}

// TestServeDependenceAllocations pins the serve path of one warm ping
// DEPENDENCE on an in-process node: decode, site, callee, reply. Its
// two allocations box the argument and the result. Serving the same
// request by name, before accesses were named by site, cost 2.00
// allocations too; by site it costs 2.00.
func TestServeDependenceAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	probe := func() {
		for i := 0; i < 16; i++ {
			wire.PutBuf(wire.GetBuf())
		}
	}
	if testing.AllocsPerRun(100, probe) != 0 {
		t.Skip("sync.Pool drops buffers at random in this build (race detector): the pools themselves allocate")
	}
	const maxAllocs = 2
	n, node0, sink, ping := pingServer(t)
	req := wire.DepRequest{ID: sink, Site: ping.id, Args: []wire.Value{{Kind: wire.KInt, Int: 1<<20 + 7}}}
	var resp wire.DepResponse
	serve := func() {
		// The serve loop recycles a request's payload once its handler
		// returns.
		payload := req.Encode()
		n.handle(transport.Message{From: 0, To: 1, Tag: 1, TID: 5, Kind: KindDependence, Payload: payload})
		wire.PutBuf(payload)
		reply, err := node0.Recv()
		if err != nil {
			t.Fatal(err)
		}
		err = wire.DecodeDepResponseInto(reply.Payload, &resp)
		wire.PutBuf(reply.Payload)
		if err != nil || resp.Err != "" || resp.Value.Int != 1<<20+8 {
			t.Fatalf("ping reply %+v (%v)", resp, err)
		}
	}
	for i := 0; i < 100; i++ {
		serve()
	}
	got := testing.AllocsPerRun(1000, serve)
	t.Logf("%.2f allocations per served ping", got)
	if got > maxAllocs {
		t.Errorf("%.2f allocations per served ping, want ≤ %d", got, maxAllocs)
	}
}

// TestServeRefusesByNameEntry: an access entry in the by-name layout
// fails with an error that names its frame, in a DEPENDENCE or a
// DEPSEQ, and is never looked up by name; a site entry behind it in
// the same vector does not run.
func TestServeRefusesByNameEntry(t *testing.T) {
	n, node0, sink, ping := pingServer(t)
	byName := wire.DepRequest{ID: sink, Kind: rewrite.InvokeMethodHasReturn, Member: "ping:(I)I",
		Args: []wire.Value{{Kind: wire.KInt, Int: 7}}}
	bySite := wire.DepRequest{ID: sink, Site: ping.id, Args: []wire.Value{{Kind: wire.KInt, Int: 7}}}
	for _, tc := range []struct {
		frame uint8
		name  string
	}{{KindDependence, "DEPENDENCE"}, {KindDepSeq, "DEPSEQ"}} {
		seq := wire.DepSeq{Reqs: []wire.DepRequest{byName, bySite}}
		out := serveOne(t, n, node0, tc.frame, seq.Encode())
		if len(out.Resps) != 1 {
			t.Fatalf("%s: %d reply entries, want 1: the refusal stops the vector", tc.name, len(out.Resps))
		}
		if err := out.Resps[0].Err; !strings.Contains(err, "by-name") || !strings.Contains(err, tc.name+" frame") {
			t.Errorf("%s: reply error %q, want a by-name refusal naming the frame", tc.name, err)
		}
	}
	if got := serveOne(t, n, node0, KindDependence, bySite.Encode()); len(got.Resps) != 1 || got.Resps[0].Value.Int != 8 {
		t.Errorf("ping by site after the refusals: %+v, want 8", got.Resps)
	}
	if n.Stats.DepRequests != 3 {
		t.Errorf("%d entries served, want 3: two refused, one ping", n.Stats.DepRequests)
	}
}
