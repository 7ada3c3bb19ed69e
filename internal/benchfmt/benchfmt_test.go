package benchfmt

import (
	"path/filepath"
	"testing"
)

func validReport() *TransportReport {
	return &TransportReport{
		Benchmark: "transport_loadgen",
		Date:      "2026-08-08",
		Host:      "linux/amd64, 1 cpus",
		Workload:  `examples/rpcstorm/rpcstorm.mj · "storm 64"`,
		Runs: []TransportRun{{
			Label: "coalesce", Conns: 8, Concurrency: 8, K: 2,
			DurationSec: 3,
			Invocations: 6000, InvokesPerSec: 2000,
			P50Ms: 3.5, P99Ms: 8.0,
			FramesPerInvoke: 128, BytesPerInvoke: 1600,
		}},
	}
}

func TestValidateAcceptsGoodReport(t *testing.T) {
	if err := validReport().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
}

func TestValidateRejectsSchemaHoles(t *testing.T) {
	cases := []struct {
		name    string
		breakIt func(*TransportReport)
	}{
		{"wrong benchmark", func(r *TransportReport) { r.Benchmark = "other" }},
		{"missing date", func(r *TransportReport) { r.Date = "" }},
		{"missing workload", func(r *TransportReport) { r.Workload = "" }},
		{"no runs", func(r *TransportReport) { r.Runs = nil }},
		{"unlabelled run", func(r *TransportReport) { r.Runs[0].Label = "" }},
		{"zero conns", func(r *TransportReport) { r.Runs[0].Conns = 0 }},
		{"single node", func(r *TransportReport) { r.Runs[0].K = 1 }},
		{"no window", func(r *TransportReport) { r.Runs[0].DurationSec = 0 }},
		{"no throughput", func(r *TransportReport) { r.Runs[0].InvokesPerSec = 0 }},
		{"p99 below p50", func(r *TransportReport) { r.Runs[0].P99Ms = 1 }},
	}
	for _, tc := range cases {
		r := validReport()
		tc.breakIt(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken report", tc.name)
		}
	}
}

func TestReportFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_transport.json")
	want := validReport()
	want.AllocsPerSend = 0
	if err := WriteTransportReport(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTransportReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != want.Benchmark || len(got.Runs) != 1 ||
		got.Runs[0] != want.Runs[0] || got.AllocsPerSend != 0 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestParseStatsReply(t *testing.T) {
	type counters struct{ MessagesSent, BytesSent int64 }
	reply := StatsReply(12, &counters{34, 56})
	if reply != `!stats {"bytes_sent":56,"invocations":12,"messages_sent":34}` {
		t.Fatalf("StatsReply = %q", reply)
	}
	m, err := ParseStatsReply(reply)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m["invocations"] != 12 || m["messages_sent"] != 34 || m["bytes_sent"] != 56 {
		t.Fatalf("bad snapshot %v", m)
	}
	if _, err := ParseStatsReply("nonsense"); err == nil {
		t.Error("malformed reply accepted")
	}
	if _, err := ParseStatsReply("!stats {broken"); err == nil {
		t.Error("malformed json accepted")
	}
}
