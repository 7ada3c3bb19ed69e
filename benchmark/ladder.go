package main

import (
	"fmt"
	"io"
	"time"

	"autodist"
	"autodist/internal/jit"
	"autodist/internal/vm"
)

// ladder is the same op from one client, pushed through one
// interchangeable layer more per rung. Every figure is an op time in
// microseconds — the median over the passes of each pass's median op
// time; the differences between neighbouring rungs are what each layer
// adds.
type ladder struct {
	sequential float64 // K=1: one VM, no runtime, no transport
	inproc     float64 // K=2 over in-process channels
	tcp        float64 // K=2 over loopback TCP
	reliable   float64 // K=2 over loopback TCP under the reliability layer, no faults
	interp     float64 // K=2 over loopback TCP with the compiled tier off
	compiled   float64 // K=2 over loopback TCP with the compiled tier on
}

// rungOpTime drives one client for length, between two readings of the
// host reference and after a warm-up a quarter as long, and returns the
// median op time in microseconds, scaled to a host at nominal speed
// like the end-to-end latencies.
func rungOpTime(ref *hostRef, invoke invokeFunc, gen func() op, length time.Duration) (float64, error) {
	gens := []func() op{gen}
	drive(invoke, gens, length/4)
	slices, err := loadSlices(ref, invoke, gens, 1, length)
	if err != nil {
		return 0, err
	}
	if win := slices[0].win; win.failed > 0 {
		return 0, fmt.Errorf("%d of %d ops failed: %w", win.failed, win.attempted, win.firstErr)
	}
	scaled, _ := sliceStats(slices)
	return scaled.p50 * 1000, nil
}

// sequentialRung runs the op on one plain VM: the program as the
// compiler emitted it, before partitioning and rewriting.
func (w *workload) sequentialRung(ref *hostRef, seed int64, length time.Duration) (float64, error) {
	prog, err := autodist.CompileString(w.source)
	if err != nil {
		return 0, err
	}
	machine, err := vm.New(prog.Bytecode.Clone())
	if err != nil {
		return 0, err
	}
	machine.Out = io.Discard
	if w.cfg.Compile {
		machine.EnableJIT(autodist.DefaultCompileThreshold, jit.Backend(machine))
	}
	if err := machine.RunMain(); err != nil {
		return 0, err
	}
	main := prog.Bytecode.Class(prog.Bytecode.MainClass)
	invoke := func(o op) (autodist.Value, error) {
		m := main.MethodByName(o.entry)
		if m == nil {
			return nil, fmt.Errorf("no entrypoint %s", o.entry)
		}
		return machine.CallMethod(main.Name, o.entry, m.Desc, o.args)
	}
	if err := w.provisionVia(invoke, seed); err != nil {
		return 0, err
	}
	return rungOpTime(ref, invoke, w.newClient(seed, 0), length)
}

// clusterRung deploys the workload under cfg and runs the op from one
// client.
func (w *workload) clusterRung(ref *hostRef, cfg autodist.Config, seed int64, length time.Duration) (float64, error) {
	cl, _, err := w.setUp(cfg, seed)
	if err != nil {
		return 0, err
	}
	t, err := rungOpTime(ref, clusterInvoker(cl), w.newClient(seed, 0), length)
	if serr := w.shutdown(cl); err == nil {
		err = serr
	}
	return t, err
}

// climb measures every rung passes times for length each — pass by
// pass, so that a drift of the host falls on all rungs alike, and on a
// fresh deployment every time, so that one deployment's luck does not
// pass for a layer's cost — and takes each rung's median.
func (w *workload) climb(ref *hostRef, seed int64, passes int, length time.Duration) (ladder, error) {
	// The TCP rung runs the workload's own tier setting; one more rung
	// with the setting flipped gives the other side.
	other := w.config(fabricTCP)
	other.Compile = !other.Compile
	rungs := []struct {
		name string
		run  func() (float64, error)
	}{
		{"sequential", func() (float64, error) { return w.sequentialRung(ref, seed, length) }},
		{"in-process", func() (float64, error) { return w.clusterRung(ref, w.config(fabricInProc), seed, length) }},
		{"TCP", func() (float64, error) { return w.clusterRung(ref, w.config(fabricTCP), seed, length) }},
		{"reliable", func() (float64, error) { return w.clusterRung(ref, w.config(fabricReliable), seed, length) }},
		{"tier", func() (float64, error) { return w.clusterRung(ref, other, seed, length) }},
	}
	times := make([][]float64, len(rungs))
	for p := 0; p < passes; p++ {
		for i, r := range rungs {
			t, err := r.run()
			if err != nil {
				return ladder{}, fmt.Errorf("%s rung: %w", r.name, err)
			}
			times[i] = append(times[i], t)
		}
	}
	l := ladder{sequential: median(times[0]), inproc: median(times[1]), tcp: median(times[2]), reliable: median(times[3])}
	if w.cfg.Compile {
		l.compiled, l.interp = l.tcp, median(times[4])
	} else {
		l.compiled, l.interp = median(times[4]), l.tcp
	}
	return l, nil
}

// report names every rung and the difference each layer adds.
func (l ladder) report(mt map[string]float64) {
	mt["vm.op_sequential_us"] = l.sequential
	mt["runtime.op_inproc_us"] = l.inproc
	mt["transport.op_tcp_us"] = l.tcp
	mt["transport.op_reliable_us"] = l.reliable
	mt["jit.op_interp_us"] = l.interp
	mt["runtime.mediation_self_us"] = l.inproc - l.sequential
	mt["transport.tcp_self_us"] = l.tcp - l.inproc
	mt["transport.reliable_self_us"] = l.reliable - l.tcp
	mt["jit.compiled_speedup"] = l.interp / l.compiled
}
