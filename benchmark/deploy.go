package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"autodist"
)

// fabric selects the transport a deployment runs over; the ladder
// swaps it under an otherwise unchanged workload.
type fabric int

const (
	fabricInProc   fabric = iota // K=2, in-process channels
	fabricTCP                    // K=2, loopback TCP
	fabricReliable               // K=2, loopback TCP under the reliability layer, no faults injected
	fabricWorkload               // K=2, loopback TCP plus whatever the workload itself configures
)

// setupSpans are the stages of source → deployed, provisioned cluster,
// indexed by the stage constants.
type setupSpans [len(setupStageMetrics)]time.Duration

const (
	stageCompile = iota
	stageAnalyze
	stagePartition
	stageRewrite
	stageDeploy
	stageProvision
)

// setupStageMetrics names the per-layer metric of every stage.
var setupStageMetrics = [...]string{
	stageCompile:   "compile.source_to_bytecode_ms",
	stageAnalyze:   "analysis.analyze_ms",
	stagePartition: "partition.partition_ms",
	stageRewrite:   "rewrite.rewrite_ms",
	stageDeploy:    "runtime.deploy_ms",
	stageProvision: "runtime.provision_ms",
}

func (s setupSpans) total() time.Duration {
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum
}

// build runs the compile-time half of the pipeline: source to one
// rewritten program per node, with the workload's remote classes
// pinned on node 1.
func (w *workload) build(sp *setupSpans) (*autodist.Distribution, error) {
	t0 := time.Now()
	prog, err := autodist.CompileString(w.source)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	t1 := time.Now()
	an, err := prog.Analyze()
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	t2 := time.Now()
	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1, Epsilon: 0.6})
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	// The placement is fixed by hand so every workload crosses the wire
	// where it says it does, whatever the partitioner would choose.
	g := an.Result.ODG.Graph
	for _, v := range g.Vertices() {
		v.Part = 0
	}
	for _, s := range an.Result.ODG.Sites {
		for _, cls := range w.remote {
			if s.Allocated == cls {
				g.Vertex(s.Node).Part = 1
			}
		}
	}
	t3 := time.Now()
	dist, err := plan.RewriteWith(w.rewrite)
	if err != nil {
		return nil, fmt.Errorf("rewrite: %w", err)
	}
	t4 := time.Now()
	sp[stageCompile], sp[stageAnalyze], sp[stagePartition], sp[stageRewrite] = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	return dist, nil
}

// config is the deployment configuration of the workload over fab.
func (w *workload) config(fab fabric) autodist.Config {
	cfg := w.cfg
	cfg.Out = io.Discard
	cfg.MaxConcurrent = clients
	cfg.TCP = fab != fabricInProc
	if fab != fabricWorkload {
		cfg.FailureRecovery = fab == fabricReliable
		cfg.ChaosDrop, cfg.ChaosSeed = 0, 0
		if !cfg.FailureRecovery {
			cfg.HeartbeatInterval, cfg.RetransmitTimeout = 0, 0
		}
	}
	return cfg
}

// check runs one op and compares its value with the reference
// model's.
func check(invoke invokeFunc, o op) error {
	v, err := invoke(o)
	if err != nil {
		return fmt.Errorf("%s%v: %w", o.entry, o.args, err)
	}
	if v != autodist.Value(o.want) {
		return fmt.Errorf("%s%v = %v, reference model says %d", o.entry, o.args, v, o.want)
	}
	return nil
}

// provisionVia runs the workload's own provisioning ops, the ones that
// follow main() before any client starts, and checks their results.
func (w *workload) provisionVia(invoke invokeFunc, seed int64) error {
	if w.provision == nil {
		return nil
	}
	for _, o := range w.provision(seed) {
		if err := check(invoke, o); err != nil {
			return err
		}
	}
	return nil
}

// provisionCluster runs main() and the provisioning ops against a fresh
// deployment.
func (w *workload) provisionCluster(invoke invokeFunc, seed int64) error {
	if _, err := invoke(op{entry: "main"}); err != nil {
		return fmt.Errorf("main: %w", err)
	}
	return w.provisionVia(invoke, seed)
}

// setUp is the whole cold path, source → deployed, provisioned
// cluster, timed stage by stage.
func (w *workload) setUp(cfg autodist.Config, seed int64) (*autodist.Cluster, setupSpans, error) {
	var sp setupSpans
	dist, err := w.build(&sp)
	if err != nil {
		return nil, sp, err
	}
	t0 := time.Now()
	cl, err := dist.Deploy(cfg)
	if err != nil {
		return nil, sp, fmt.Errorf("deploy: %w", err)
	}
	t1 := time.Now()
	if err := w.provisionCluster(clusterInvoker(cl), seed); err != nil {
		cl.Kill()
		return nil, sp, err
	}
	sp[stageDeploy], sp[stageProvision] = t1.Sub(t0), time.Since(t1)
	return cl, sp, nil
}

// shutdownGrace bounds how long a deployment may take to drain and
// stop; the benchmark must always end.
const shutdownGrace = 3 * time.Second

// stopWithin runs stop (a cluster's Shutdown) and waits for it for at
// most shutdownGrace. A deployment that injects frame loss can lose the
// SHUTDOWN frame itself, which the runtime never retransmits because
// the sender closes its endpoint at once; node 1 then serves for ever.
// For that case the caller passes crash, which fails node 1 the way
// Cluster.FailNode does; its serve loop ends and stop returns. Every
// op had completed by then, so nothing measured is lost. Without crash
// a deployment that does not stop in time is an error.
func stopWithin(name string, stop func(context.Context) error, crash func()) error {
	done := make(chan error, 1)
	go func() { done <- stop(context.Background()) }()
	select {
	case err := <-done:
		return err
	case <-time.After(shutdownGrace):
	}
	if crash == nil {
		return fmt.Errorf("deployment did not stop within %v", shutdownGrace)
	}
	fmt.Fprintf(os.Stderr, "%s: deployment did not stop within %v (a dropped SHUTDOWN frame is not retransmitted); failing node 1\n", name, shutdownGrace)
	crash()
	return <-done
}

// shutdown drains and stops a deployment made by Distribution.Deploy.
func (w *workload) shutdown(cl *autodist.Cluster) error {
	var crash func()
	if w.cfg.ChaosDrop > 0 {
		crash = func() { _ = cl.FailNode(1) }
	}
	return stopWithin(w.name, cl.Shutdown, crash)
}
