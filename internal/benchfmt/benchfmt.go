// Package benchfmt defines the JSON shapes the wall-clock benchmark
// harness exchanges and records: the cluster-counter snapshot jdrun's
// -listen server returns for "!stats", and the BENCH_transport.json
// report cmd/loadgen emits. Keeping them in one package makes the
// producer (jdrun/loadgen) and every consumer (CI schema validation,
// later trend tooling) agree by construction.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"unicode"

	"autodist/internal/metrics"
)

// StatsReply renders the reply a jdrun -listen server sends for the
// "!stats" meta command: "!stats " and a JSON object holding
// "invocations" plus every counter of *c, keyed by StatsKey. The
// counters are cumulative since deployment, so a harness differences
// two replies around its measurement window.
func StatsReply[T any](invocations int64, c *T) string {
	m := map[string]int64{"invocations": invocations}
	metrics.Each(c, func(name string, v int64) { m[StatsKey(name)] = v })
	data, _ := json.Marshal(m) // a map[string]int64 always marshals
	return "!stats " + string(data)
}

// StatsKey names a counter outside Go: its field name in snake_case
// ("MessagesSent" → "messages_sent").
func StatsKey(field string) string {
	var b strings.Builder
	for i, r := range field {
		if unicode.IsUpper(r) {
			if i > 0 {
				b.WriteByte('_')
			}
			r = unicode.ToLower(r)
		}
		b.WriteRune(r)
	}
	return b.String()
}

// ParseStatsReply parses a StatsReply line into its keys and values.
func ParseStatsReply(reply string) (map[string]int64, error) {
	rest, ok := strings.CutPrefix(reply, "!stats ")
	if !ok {
		return nil, fmt.Errorf("benchfmt: malformed stats reply %q", reply)
	}
	var m map[string]int64
	if err := json.Unmarshal([]byte(rest), &m); err != nil {
		return nil, fmt.Errorf("benchfmt: stats reply: %w", err)
	}
	return m, nil
}

// TransportRun is one measured loadgen configuration: a label (e.g.
// "coalesce" or "nocoalesce"), the knobs it ran under, and its results.
type TransportRun struct {
	Label string `json:"label"`
	// Conns is the number of client TCP connections driving the
	// server; Concurrency the server-side MaxConcurrent; K the node
	// count; DurationSec the measurement window (after warmup);
	// WarmupSec the ramp window excluded from it (connection setup,
	// tier-up compilation), so latency and throughput reflect steady
	// state.
	Conns       int     `json:"conns"`
	Concurrency int     `json:"concurrency"`
	K           int     `json:"k"`
	DurationSec float64 `json:"duration_sec"`
	WarmupSec   float64 `json:"warmup_sec,omitempty"`
	// Invocations completed inside the window; InvokesPerSec is the
	// headline throughput.
	Invocations   int64   `json:"invocations"`
	InvokesPerSec float64 `json:"invokes_per_sec"`
	// P50Ms/P99Ms are request-latency percentiles in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// FramesPerInvoke/BytesPerInvoke are the internode traffic each
	// invocation cost, from !stats deltas around the window.
	FramesPerInvoke float64 `json:"frames_per_invoke"`
	BytesPerInvoke  float64 `json:"bytes_per_invoke"`
	// Retransmits/Recoveries are the reliability layer's healing
	// counters over the window (!stats deltas); nonzero only for runs
	// against a -recover server, typically with -chaos injection.
	Retransmits int64 `json:"retransmits,omitempty"`
	Recoveries  int64 `json:"recoveries,omitempty"`
	// FusedBatches/FusedAccesses are access fusion's !stats deltas
	// over the window: DEPSEQ frames sent and the accesses they
	// carried. Zero for runs against a -nofuse server.
	FusedBatches  int64 `json:"fused_batches,omitempty"`
	FusedAccesses int64 `json:"fused_accesses,omitempty"`
	// Compile records whether the server ran with tiered execution;
	// CompiledMethods/TierUps/CompiledEntries/Deopts are its !stats
	// deltas over the window when it did.
	Compile         bool  `json:"compile,omitempty"`
	CompiledMethods int64 `json:"compiled_methods,omitempty"`
	TierUps         int64 `json:"tier_ups,omitempty"`
	CompiledEntries int64 `json:"compiled_entries,omitempty"`
	Deopts          int64 `json:"deopts,omitempty"`
}

// TransportReport is the committed BENCH_transport.json document.
type TransportReport struct {
	// Benchmark names the harness ("transport_loadgen").
	Benchmark string `json:"benchmark"`
	// Date is the run date (YYYY-MM-DD); Host a free-form machine
	// description.
	Date string `json:"date"`
	Host string `json:"host,omitempty"`
	// Workload describes the driven program and invocation line.
	Workload string `json:"workload"`
	// AllocsPerSend is the transport-level send-path allocation count
	// measured in-process (testing.AllocsPerRun over a live TCP pair);
	// the zero-allocation criterion pins it at 0.
	AllocsPerSend float64 `json:"allocs_per_send"`
	// Runs holds one entry per measured configuration.
	Runs []TransportRun `json:"runs"`
}

// Validate checks the report is schema-complete and internally sane —
// the CI smoke job runs it against a freshly emitted report.
func (r *TransportReport) Validate() error {
	if r.Benchmark != "transport_loadgen" {
		return fmt.Errorf("benchfmt: benchmark %q, want transport_loadgen", r.Benchmark)
	}
	if r.Date == "" {
		return fmt.Errorf("benchfmt: missing date")
	}
	if r.Workload == "" {
		return fmt.Errorf("benchfmt: missing workload")
	}
	if len(r.Runs) == 0 {
		return fmt.Errorf("benchfmt: no runs")
	}
	for i, run := range r.Runs {
		if run.Label == "" {
			return fmt.Errorf("benchfmt: run %d missing label", i)
		}
		if run.Conns <= 0 || run.Concurrency <= 0 || run.K < 2 {
			return fmt.Errorf("benchfmt: run %q has implausible topology (conns %d, concurrency %d, k %d)",
				run.Label, run.Conns, run.Concurrency, run.K)
		}
		if run.DurationSec <= 0 {
			return fmt.Errorf("benchfmt: run %q has no measurement window", run.Label)
		}
		if run.Invocations <= 0 || run.InvokesPerSec <= 0 {
			return fmt.Errorf("benchfmt: run %q measured no throughput", run.Label)
		}
		if run.P50Ms < 0 || run.P99Ms < run.P50Ms {
			return fmt.Errorf("benchfmt: run %q has inconsistent latency percentiles (p50 %.3f, p99 %.3f)",
				run.Label, run.P50Ms, run.P99Ms)
		}
	}
	return nil
}

// ReadTransportReport loads and validates a BENCH_transport.json file.
func ReadTransportReport(path string) (*TransportReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r TransportReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// WriteTransportReport validates and writes the report with stable
// indentation (committed artifacts diff cleanly).
func WriteTransportReport(path string, r *TransportReport) error {
	if err := r.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// MembershipPhase is one measured window of the scale-out scenario:
// the same client load before and after a membership transition, so
// the committed report shows the throughput ramp the joiner bought.
type MembershipPhase struct {
	// Label names the window ("before-join", "after-join").
	Label string `json:"label"`
	// DurationSec is the measurement window; Invocations completed
	// inside it; InvokesPerSec the resulting throughput.
	DurationSec   float64 `json:"duration_sec"`
	Invocations   int64   `json:"invocations"`
	InvokesPerSec float64 `json:"invokes_per_sec"`
	// P50Ms/P99Ms are request-latency percentiles in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// MembershipReport is the committed BENCH_membership.json document:
// cmd/loadgen's -scaleout scenario drives steady load at a jdrun
// -elastic server, admits a node mid-stream with "!join", and records
// the join latency plus per-phase throughput.
type MembershipReport struct {
	// Benchmark names the harness ("membership_scaleout").
	Benchmark string `json:"benchmark"`
	// Date is the run date (YYYY-MM-DD); Host a free-form machine
	// description.
	Date string `json:"date"`
	Host string `json:"host,omitempty"`
	// Workload describes the driven program and invocation line.
	Workload string `json:"workload"`
	// Conns is the client connection count; K the cluster size before
	// the join.
	Conns int `json:"conns"`
	K     int `json:"k"`
	// JoinedRank is the rank the server admitted; JoinMs how long the
	// join took as observed by the server (sub-second is the target).
	JoinedRank int     `json:"joined_rank"`
	JoinMs     float64 `json:"join_ms"`
	// Joins/Drains/Migrations are the server's cumulative membership
	// counters after the run.
	Joins      int64 `json:"joins"`
	Drains     int64 `json:"drains,omitempty"`
	Migrations int64 `json:"migrations"`
	// Phases holds the measured windows, in order.
	Phases []MembershipPhase `json:"phases"`
}

// Validate checks the report is schema-complete and internally sane.
func (r *MembershipReport) Validate() error {
	if r.Benchmark != "membership_scaleout" {
		return fmt.Errorf("benchfmt: benchmark %q, want membership_scaleout", r.Benchmark)
	}
	if r.Date == "" {
		return fmt.Errorf("benchfmt: missing date")
	}
	if r.Workload == "" {
		return fmt.Errorf("benchfmt: missing workload")
	}
	if r.Conns <= 0 || r.K < 2 {
		return fmt.Errorf("benchfmt: implausible topology (conns %d, k %d)", r.Conns, r.K)
	}
	if r.JoinedRank < r.K {
		return fmt.Errorf("benchfmt: joined rank %d inside the original cluster of %d", r.JoinedRank, r.K)
	}
	if r.JoinMs <= 0 {
		return fmt.Errorf("benchfmt: no join latency recorded")
	}
	if r.Joins < 1 {
		return fmt.Errorf("benchfmt: no joins counted")
	}
	if len(r.Phases) < 2 {
		return fmt.Errorf("benchfmt: %d phases, want at least before/after", len(r.Phases))
	}
	for i, p := range r.Phases {
		if p.Label == "" {
			return fmt.Errorf("benchfmt: phase %d missing label", i)
		}
		if p.DurationSec <= 0 {
			return fmt.Errorf("benchfmt: phase %q has no measurement window", p.Label)
		}
		if p.Invocations <= 0 || p.InvokesPerSec <= 0 {
			return fmt.Errorf("benchfmt: phase %q measured no throughput", p.Label)
		}
		if p.P50Ms < 0 || p.P99Ms < p.P50Ms {
			return fmt.Errorf("benchfmt: phase %q has inconsistent latency percentiles (p50 %.3f, p99 %.3f)",
				p.Label, p.P50Ms, p.P99Ms)
		}
	}
	return nil
}

// ReadMembershipReport loads and validates a BENCH_membership.json
// file.
func ReadMembershipReport(path string) (*MembershipReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r MembershipReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// WriteMembershipReport validates and writes the report with stable
// indentation.
func WriteMembershipReport(path string, r *MembershipReport) error {
	if err := r.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CompileRun is one kernel measured interpreted vs compiled: the
// tiered-execution A/B the BENCH_compile.json report commits.
type CompileRun struct {
	// Kernel names the workload (a bench.Programs entry).
	Kernel string `json:"kernel"`
	// Iters is how many times the kernel entrypoint ran per side.
	Iters int `json:"iters"`
	// InterpNsPerOp/CompiledNsPerOp are the per-iteration wall times.
	InterpNsPerOp   float64 `json:"interp_ns_per_op"`
	CompiledNsPerOp float64 `json:"compiled_ns_per_op"`
	// Speedup is InterpNsPerOp / CompiledNsPerOp.
	Speedup float64 `json:"speedup"`
	// CompiledMethods/TierUps/CompiledEntries/Deopts are the compiled
	// side's counters: TierUps counts interpreter→compiled promotions
	// (so it tracks CompiledMethods, not the iteration count), and
	// CompiledEntries counts compiled-frame entries.
	CompiledMethods int64 `json:"compiled_methods"`
	TierUps         int64 `json:"tier_ups"`
	CompiledEntries int64 `json:"compiled_entries,omitempty"`
	Deopts          int64 `json:"deopts,omitempty"`
}

// CompileReport is the committed BENCH_compile.json document.
type CompileReport struct {
	// Benchmark names the harness ("compile_kernels").
	Benchmark string `json:"benchmark"`
	// Date is the run date (YYYY-MM-DD); Host a free-form machine
	// description.
	Date string `json:"date"`
	Host string `json:"host,omitempty"`
	// Threshold is the hotness threshold the compiled side ran under.
	Threshold int `json:"threshold"`
	// Runs holds one entry per kernel.
	Runs []CompileRun `json:"runs"`
}

// Validate checks the report is schema-complete and internally sane.
func (r *CompileReport) Validate() error {
	if r.Benchmark != "compile_kernels" {
		return fmt.Errorf("benchfmt: benchmark %q, want compile_kernels", r.Benchmark)
	}
	if r.Date == "" {
		return fmt.Errorf("benchfmt: missing date")
	}
	if r.Threshold < 1 {
		return fmt.Errorf("benchfmt: implausible threshold %d", r.Threshold)
	}
	if len(r.Runs) == 0 {
		return fmt.Errorf("benchfmt: no runs")
	}
	for i, run := range r.Runs {
		if run.Kernel == "" {
			return fmt.Errorf("benchfmt: run %d missing kernel", i)
		}
		if run.Iters <= 0 {
			return fmt.Errorf("benchfmt: run %q has no iterations", run.Kernel)
		}
		if run.InterpNsPerOp <= 0 || run.CompiledNsPerOp <= 0 {
			return fmt.Errorf("benchfmt: run %q measured no time", run.Kernel)
		}
		if run.Speedup <= 0 {
			return fmt.Errorf("benchfmt: run %q has no speedup figure", run.Kernel)
		}
		if run.CompiledMethods <= 0 || run.TierUps <= 0 {
			return fmt.Errorf("benchfmt: run %q compiled nothing (compiled %d, tier-ups %d)",
				run.Kernel, run.CompiledMethods, run.TierUps)
		}
	}
	return nil
}

// ReadCompileReport loads and validates a BENCH_compile.json file.
func ReadCompileReport(path string) (*CompileReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r CompileReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// WriteCompileReport validates and writes the report with stable
// indentation.
func WriteCompileReport(path string, r *CompileReport) error {
	if err := r.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
