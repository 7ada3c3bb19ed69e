package experiments

import (
	"fmt"
	"strings"

	"autodist/internal/analysis"
	"autodist/internal/compile"
	"autodist/internal/partition"
	"autodist/internal/rewrite"
	"autodist/internal/runtime"
	"autodist/internal/transport"
)

// PhaseShiftSource is the adaptive-repartitioning showcase workload:
// its hot object set moves mid-run. The driver (node 0) hammers the
// a-group stages for the first phase and the b-group stages for the
// second, so any static partition leaves at least one phase's hot
// objects on the wrong side of the wire. Adaptive repartitioning
// observes the traffic, migrates each phase's hot objects next to the
// driver, and turns the remaining phase's accesses into local calls —
// the scenario static partitioning cannot win.
const PhaseShiftSource = `
class Stage {
	int acc;
	int step(int x) { this.acc = this.acc + x; return this.acc; }
	int total() { return this.acc; }
}
class Main {
	static void main() {
		Stage a0 = new Stage();
		Stage a1 = new Stage();
		Stage a2 = new Stage();
		Stage a3 = new Stage();
		Stage b0 = new Stage();
		Stage b1 = new Stage();
		Stage b2 = new Stage();
		Stage b3 = new Stage();
		int s = 0;
		for (int i = 0; i < 150; i++) {
			s = s + a0.step(i) + a1.step(i) + a2.step(i) + a3.step(i);
		}
		for (int i = 0; i < 150; i++) {
			s = s + b0.step(i) + b1.step(i) + b2.step(i) + b3.step(i);
		}
		System.println("checksum=" + s);
		System.println("a=" + (a0.total() + a1.total() + a2.total() + a3.total()));
		System.println("b=" + (b0.total() + b1.total() + b2.total() + b3.total()));
	}
}
`

// AdaptiveRow is one row of the adaptive-repartitioning A/B table: the
// same workload distributed 2-way with the plan as a contract
// (-adaptive=off) versus as an initial placement with live migration.
type AdaptiveRow struct {
	Workload    string
	StaticMsgs  int64
	StaticBytes int64
	AdaptMsgs   int64
	AdaptBytes  int64
	Migrations  int64
	Forwards    int64
}

// adaptiveWorkloads names the workloads of the adaptive A/B table.
func adaptiveWorkloads() map[string]string {
	return map[string]string{
		"phaseshift": PhaseShiftSource,
		"bank":       BankExampleSource,
	}
}

// RunAdaptiveAB distributes one source 2-way and runs it with the
// static plan and with adaptive repartitioning, returning both
// clusters' stats. The partition, seed and fabric match the -messages
// table so the columns are comparable.
func RunAdaptiveAB(src string, k int) (static, adaptive runtime.NodeStats, err error) {
	run := func(adapt bool) (runtime.NodeStats, error) {
		bp, _, err := compile.CompileSource(src)
		if err != nil {
			return runtime.NodeStats{}, err
		}
		res, err := analysis.Analyze(bp)
		if err != nil {
			return runtime.NodeStats{}, err
		}
		if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: k, Seed: 1, Epsilon: BalanceEps}); err != nil {
			return runtime.NodeStats{}, err
		}
		rw, err := rewrite.RewriteWith(bp, res, k, rewrite.Options{Adaptive: adapt, NoFuse: true})
		if err != nil {
			return runtime.NodeStats{}, err
		}
		every := 0
		if adapt {
			every = 32
		}
		var out strings.Builder
		cluster, err := runtime.NewCluster(rw.Nodes, rw.Plan, transport.NewInProc(k), runtime.Options{
			Out: &out, MaxSteps: 2_000_000_000, AdaptEvery: every,
		})
		if err != nil {
			return runtime.NodeStats{}, err
		}
		if err := cluster.Run(); err != nil {
			return runtime.NodeStats{}, fmt.Errorf("adaptive=%v: %w", adapt, err)
		}
		return cluster.TotalStats(), nil
	}
	if static, err = run(false); err != nil {
		return
	}
	adaptive, err = run(true)
	return
}

// TableAdaptive measures adaptive repartitioning against the static
// plan on the phase-shifting workload and the bank example.
func TableAdaptive() ([]AdaptiveRow, error) {
	var rows []AdaptiveRow
	for _, name := range []string{"phaseshift", "bank"} {
		src := adaptiveWorkloads()[name]
		static, adaptive, err := RunAdaptiveAB(src, 2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, AdaptiveRow{
			Workload:    name,
			StaticMsgs:  static.MessagesSent,
			StaticBytes: static.BytesSent,
			AdaptMsgs:   adaptive.MessagesSent,
			AdaptBytes:  adaptive.BytesSent,
			Migrations:  adaptive.Migrations,
			Forwards:    adaptive.Forwards,
		})
	}
	return rows, nil
}

// FormatTableAdaptive renders the adaptive A/B comparison.
func FormatTableAdaptive(rows []AdaptiveRow) string {
	var b strings.Builder
	b.WriteString("Adaptive repartitioning: live migration vs static plan (2-way, in-process fabric)\n")
	b.WriteString(fmt.Sprintf("%-10s %8s %8s %7s | %9s %9s %7s | %5s %5s\n",
		"workload", "msgs", "msgs-ad", "red", "bytes", "bytes-ad", "red", "migr", "fwd"))
	red := func(base, opt int64) string {
		if base == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", float64(base-opt)/float64(base)*100)
	}
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-10s %8d %8d %7s | %9d %9d %7s | %5d %5d\n",
			r.Workload, r.StaticMsgs, r.AdaptMsgs, red(r.StaticMsgs, r.AdaptMsgs),
			r.StaticBytes, r.AdaptBytes, red(r.StaticBytes, r.AdaptBytes),
			r.Migrations, r.Forwards))
	}
	return b.String()
}
