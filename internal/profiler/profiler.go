// Package profiler implements the mixed instrumentation/sampling
// profiler of paper §6. Six metrics cover the paper's four resource
// categories (CPU, memory, battery, communication):
//
//   - method duration and method frequency use enter/exit
//     instrumentation (the expensive metrics in Table 3);
//   - hot methods, hot paths and the dynamic call graph sample the
//     interpreter call stack on a scheduling quantum, modelling Joeq's
//     interrupter-thread sampling (the cheap metrics);
//   - memory allocation overloads the VM allocator.
//
// A Profiler with Metric None corresponds to the paper's baseline:
// profiling support compiled in but not enabled.
package profiler

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"autodist/internal/vm"
)

// Metric selects which profiler is enabled.
type Metric int

// The six metrics plus the disabled baseline. FieldAccess is an
// extension beyond the paper's Table 3 set: it counts per-class field
// reads and writes, the observed read:write ratio that sharpens the
// replication-candidate classification (analysis.ReplicaIntensity).
const (
	None Metric = iota
	MethodDuration
	MethodFrequency
	HotMethods
	HotPaths
	MemoryAllocation
	DynamicCallGraph
	FieldAccess
)

// Metrics lists all enabled metrics in Table 3's column order.
// FieldAccess is deliberately excluded so Table 3 keeps the paper's
// columns; attach it explicitly to measure read/write intensity.
func Metrics() []Metric {
	return []Metric{HotPaths, DynamicCallGraph, HotMethods, MethodDuration, MethodFrequency, MemoryAllocation}
}

// String names the metric like the paper's Table 3 headers.
func (m Metric) String() string {
	switch m {
	case None:
		return "Baseline"
	case MethodDuration:
		return "Method Duration"
	case MethodFrequency:
		return "Method Frequency"
	case HotMethods:
		return "Hot Methods"
	case HotPaths:
		return "Hot Paths"
	case MemoryAllocation:
		return "Memory Usage"
	case DynamicCallGraph:
		return "Dynamic Call Graph"
	case FieldAccess:
		return "Field Access"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// DefaultQuantum is the sampling period in interpreted instructions.
const DefaultQuantum = 2048

// CallEdge is one caller→callee edge of the dynamic call graph.
type CallEdge struct {
	Caller, Callee string
}

// Profiler collects one metric's data for one VM.
type Profiler struct {
	Metric  Metric
	Quantum int

	// Instrumentation state.
	durTotal   map[string]time.Duration
	durStack   []time.Time
	frequency  map[string]int64
	allocCount map[string]int64
	allocSlots map[string]int64
	readCount  map[string]int64
	writeCount map[string]int64

	// Sampling state.
	hotCounts  map[string]int64
	pathCounts map[string]int64
	callEdges  map[CallEdge]int64
}

// Attach installs the metric's hooks on the VM and returns the
// profiler. Attaching None installs nothing (baseline).
func Attach(machine *vm.VM, metric Metric) *Profiler {
	p := &Profiler{
		Metric:     metric,
		Quantum:    DefaultQuantum,
		durTotal:   map[string]time.Duration{},
		frequency:  map[string]int64{},
		allocCount: map[string]int64{},
		allocSlots: map[string]int64{},
		readCount:  map[string]int64{},
		writeCount: map[string]int64{},
		hotCounts:  map[string]int64{},
		pathCounts: map[string]int64{},
		callEdges:  map[CallEdge]int64{},
	}
	key := func(class, method string) string { return class + "." + method }
	switch metric {
	case MethodDuration:
		machine.Hooks.MethodEnter = func(class, method string) {
			p.durStack = append(p.durStack, time.Now())
		}
		machine.Hooks.MethodExit = func(class, method string) {
			n := len(p.durStack) - 1
			start := p.durStack[n]
			p.durStack = p.durStack[:n]
			p.durTotal[key(class, method)] += time.Since(start)
		}
	case MethodFrequency:
		machine.Hooks.MethodEnter = func(class, method string) {
			p.frequency[key(class, method)]++
		}
	case HotMethods:
		machine.Hooks.Quantum = p.Quantum
		machine.Hooks.OnQuantum = func(stack []vm.StackEntry) {
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				p.hotCounts[key(top.Class, top.Method)]++
			}
		}
	case HotPaths:
		machine.Hooks.Quantum = p.Quantum
		machine.Hooks.OnQuantum = func(stack []vm.StackEntry) {
			var b strings.Builder
			for i, f := range stack {
				if i > 0 {
					b.WriteByte('>')
				}
				b.WriteString(f.Class)
				b.WriteByte('.')
				b.WriteString(f.Method)
			}
			p.pathCounts[b.String()]++
		}
	case DynamicCallGraph:
		machine.Hooks.Quantum = p.Quantum
		machine.Hooks.OnQuantum = func(stack []vm.StackEntry) {
			for i := 1; i < len(stack); i++ {
				e := CallEdge{
					Caller: key(stack[i-1].Class, stack[i-1].Method),
					Callee: key(stack[i].Class, stack[i].Method),
				}
				p.callEdges[e]++
			}
		}
	case MemoryAllocation:
		machine.Hooks.OnAlloc = func(class string, slots int) {
			p.allocCount[class]++
			p.allocSlots[class] += int64(slots)
		}
	case FieldAccess:
		// Stores executed while a constructor is on the stack are
		// excluded from the write counts: they happen before the
		// object can be shared, so they never cost replica
		// invalidations — mirroring (slightly more coarsely) the
		// static estimator's constructor-self-store exclusion in
		// analysis.BuildReplicaIntensity.
		ctorDepth := 0
		machine.Hooks.MethodEnter = func(class, method string) {
			if method == "<init>" {
				ctorDepth++
			}
		}
		machine.Hooks.MethodExit = func(class, method string) {
			if method == "<init>" && ctorDepth > 0 {
				ctorDepth--
			}
		}
		machine.Hooks.OnFieldAccess = func(class, field string, write bool) {
			if write {
				if ctorDepth == 0 {
					p.writeCount[class]++
				}
			} else {
				p.readCount[class]++
			}
		}
	}
	return p
}

// Frequency returns the invocation count for Class.method.
func (p *Profiler) Frequency(key string) int64 { return p.frequency[key] }

// Duration returns the cumulative (inclusive) time for Class.method.
func (p *Profiler) Duration(key string) time.Duration { return p.durTotal[key] }

// FieldAccessCounts returns the per-class field read and write counts
// observed under the FieldAccess metric, in the shape
// analysis.ReplicaIntensity.ApplyProfile consumes.
func (p *Profiler) FieldAccessCounts() (reads, writes map[string]int64) {
	reads = make(map[string]int64, len(p.readCount))
	for k, v := range p.readCount {
		reads[k] = v
	}
	writes = make(map[string]int64, len(p.writeCount))
	for k, v := range p.writeCount {
		writes[k] = v
	}
	return reads, writes
}

type kv struct {
	k string
	v int64
}

func topOf(m map[string]int64, n int) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].v != out[j].v {
			return out[i].v > out[j].v
		}
		return out[i].k < out[j].k
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Report renders a human-readable summary of whichever metric ran.
func (p *Profiler) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", p.Metric)
	switch p.Metric {
	case MethodDuration:
		type dkv struct {
			k string
			v time.Duration
		}
		var rows []dkv
		for k, v := range p.durTotal {
			rows = append(rows, dkv{k, v})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
		for i, r := range rows {
			if i >= 20 {
				break
			}
			fmt.Fprintf(&b, "%-40s %12v\n", r.k, r.v)
		}
	case MethodFrequency:
		for _, e := range topOf(p.frequency, 20) {
			fmt.Fprintf(&b, "%-40s %12d calls\n", e.k, e.v)
		}
	case HotMethods:
		for _, e := range topOf(p.hotCounts, 20) {
			fmt.Fprintf(&b, "%-40s %12d samples\n", e.k, e.v)
		}
	case HotPaths:
		for _, e := range topOf(p.pathCounts, 20) {
			fmt.Fprintf(&b, "%-60s %8d samples\n", e.k, e.v)
		}
	case MemoryAllocation:
		for _, e := range topOf(p.allocCount, 20) {
			fmt.Fprintf(&b, "%-40s %10d allocs %10d slots\n", e.k, e.v, p.allocSlots[e.k])
		}
	case DynamicCallGraph:
		type ekv struct {
			e CallEdge
			v int64
		}
		var rows []ekv
		for e, v := range p.callEdges {
			rows = append(rows, ekv{e, v})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].v != rows[j].v {
				return rows[i].v > rows[j].v
			}
			return rows[i].e.Caller < rows[j].e.Caller
		})
		for i, r := range rows {
			if i >= 20 {
				break
			}
			fmt.Fprintf(&b, "%-40s -> %-40s %8d\n", r.e.Caller, r.e.Callee, r.v)
		}
	case FieldAccess:
		for _, e := range topOf(p.readCount, 20) {
			fmt.Fprintf(&b, "%-40s %10d reads %10d writes\n", e.k, e.v, p.writeCount[e.k])
		}
	default:
		b.WriteString("(baseline: no metric enabled)\n")
	}
	return b.String()
}
