package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"

	"autodist"
	"autodist/internal/metrics"
)

// listenLoop deploys the distribution resident and serves invocations
// over TCP: each accepted connection carries newline-delimited
// invocation lines (the -serve syntax) and gets one reply line per
// request, in order per connection. Connections run concurrently; the
// cluster's MaxConcurrent admission governs how many invocations
// execute at once. "!stats" returns the cluster's counters as JSON
// (statsReply); "!shutdown" drains the cluster and returns.
// The bound address is announced on stderr so callers may listen on
// port 0.
func listenLoop(dist *autodist.Distribution, cfg autodist.Config, addr string) error {
	cluster, err := dist.Deploy(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		_ = cluster.Shutdown(context.Background())
		return err
	}
	fmt.Fprintf(os.Stderr, "listening on %s; %d nodes; entrypoints: %s\n",
		ln.Addr(), cfg.K, strings.Join(cluster.Entrypoints(), " "))

	stop := make(chan struct{})
	var stopOnce sync.Once
	shutdown := func() { stopOnce.Do(func() { close(stop) }) }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed by shutdown
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				serveConn(c, cluster, shutdown)
			}()
		}
	}()

	<-stop
	_ = ln.Close()
	wg.Wait()
	served := cluster.Invocations()
	if err := cluster.Shutdown(context.Background()); err != nil {
		return err
	}
	printSummary(cfg.K, cluster.Stats(), served)
	return nil
}

// serveConn handles one client connection until EOF: invocation lines
// are answered in order ("entry = value", "entry ok", "err: ...");
// "!stats" answers with a JSON counter snapshot and "!shutdown" asks
// the server to drain and exit (acknowledged with "!bye"). On an
// -elastic deployment "!join" grows the cluster by one node
// ("!joined rank=N ms=X") and "!drain N" retires rank N gracefully
// ("!drained rank=N ms=X") — both while invocations keep flowing.
func serveConn(c net.Conn, cluster *autodist.Cluster, shutdown func()) {
	defer c.Close()
	w := bufio.NewWriter(c)
	sc := bufio.NewScanner(c)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case line == "!stats":
			c := cluster.Stats().Counters()
			fmt.Fprintln(w, statsReply(cluster.Invocations(), &c))
		case line == "!join":
			t0 := time.Now()
			rank, err := cluster.Join()
			if err != nil {
				fmt.Fprintf(w, "err: %v\n", err)
			} else {
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				fmt.Fprintf(w, "!joined rank=%d ms=%.3f\n", rank, ms)
				fmt.Fprintf(os.Stderr, "joined rank %d in %.3fms\n", rank, ms)
			}
		case strings.HasPrefix(line, "!drain "):
			rank, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "!drain ")))
			if err != nil {
				fmt.Fprintf(w, "err: !drain wants a rank: %v\n", err)
				break
			}
			t0 := time.Now()
			if err := cluster.Drain(rank); err != nil {
				fmt.Fprintf(w, "err: %v\n", err)
			} else {
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				fmt.Fprintf(w, "!drained rank=%d ms=%.3f\n", rank, ms)
				fmt.Fprintf(os.Stderr, "drained rank %d in %.3fms\n", rank, ms)
			}
		case line == "!shutdown":
			fmt.Fprintln(w, "!bye")
			_ = w.Flush()
			shutdown()
			return
		default:
			fields := strings.Fields(line)
			args := make([]autodist.Value, 0, len(fields)-1)
			for _, f := range fields[1:] {
				args = append(args, parseArg(f))
			}
			res, err := cluster.Invoke(fields[0], args...)
			switch {
			case err != nil:
				fmt.Fprintf(w, "err: %v\n", err)
			case res.Value != nil:
				fmt.Fprintf(w, "%s = %v\n", res.Entry, res.Value)
			default:
				fmt.Fprintf(w, "%s ok\n", res.Entry)
			}
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// statsReply renders the reply to "!stats": "!stats " and a JSON
// object holding "invocations" plus every counter of *c, keyed by
// statsKey. The counters are cumulative since deployment, so a client
// differences two replies around its measurement window.
func statsReply(invocations int64, c *autodist.Counters) string {
	m := map[string]int64{"invocations": invocations}
	metrics.Each(c, func(name string, v int64) { m[statsKey(name)] = v })
	data, _ := json.Marshal(m) // a map[string]int64 always marshals
	return "!stats " + string(data)
}

// statsKey names a counter outside Go: its field name in snake_case
// ("MessagesSent" → "messages_sent").
func statsKey(field string) string {
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
