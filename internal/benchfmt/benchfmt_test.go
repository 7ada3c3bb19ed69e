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
	snap, err := ParseStatsReply(`!stats {"invocations":12,"messages":34,"bytes":56}`)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Invocations != 12 || snap.Messages != 34 || snap.Bytes != 56 {
		t.Fatalf("bad snapshot %+v", snap)
	}
	if _, err := ParseStatsReply("nonsense"); err == nil {
		t.Error("malformed reply accepted")
	}
	if _, err := ParseStatsReply("!stats {broken"); err == nil {
		t.Error("malformed json accepted")
	}
}
