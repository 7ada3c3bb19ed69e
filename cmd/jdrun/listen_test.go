package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"

	"autodist"
)

// TestServeConnAnswersInvocationsAndStats drives one -listen
// connection: invocation lines are answered in order, "!stats" carries
// one snake_case key per counter plus invocations, and "!shutdown" is
// answered with "!bye" and asks the server to stop.
func TestServeConnAnswersInvocationsAndStats(t *testing.T) {
	src, err := os.ReadFile("../../examples/rpcstorm/rpcstorm.mj")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := autodist.CompileString(string(src))
	if err != nil {
		t.Fatal(err)
	}
	an, err := prog.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := an.Partition(2, autodist.PartitionOptions{Seed: 1, Epsilon: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := plan.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := dist.Deploy(autodist.Config{TCP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Kill()

	client, server := net.Pipe()
	stopped := make(chan struct{})
	go serveConn(server, cluster, func() { close(stopped) })
	defer client.Close()
	r := bufio.NewReader(client)
	ask := func(line string) string {
		t.Helper()
		if _, err := client.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSuffix(reply, "\n")
	}

	for _, tc := range []struct{ line, want string }{
		{"main", "main ok"},
		{"storm 16", "storm = 136"},
		{"nosuch", "err: "},
	} {
		if got := ask(tc.line); !strings.HasPrefix(got, tc.want) {
			t.Errorf("%q answered %q, want %q", tc.line, got, tc.want)
		}
	}

	reply := ask("!stats")
	body, ok := strings.CutPrefix(reply, "!stats ")
	if !ok {
		t.Fatalf("!stats answered %q", reply)
	}
	var m map[string]int64
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	ct := reflect.TypeFor[autodist.Counters]()
	if len(m) != ct.NumField()+1 {
		t.Errorf("!stats has %d keys, want %d counters + invocations: %v", len(m), ct.NumField(), m)
	}
	for i := range ct.NumField() {
		if _, ok := m[statsKey(ct.Field(i).Name)]; !ok {
			t.Errorf("!stats lacks counter %s", ct.Field(i).Name)
		}
	}
	if m["invocations"] != 2 || m["messages_sent"] == 0 {
		t.Errorf("!stats after main and storm 16: invocations %d, messages_sent %d",
			m["invocations"], m["messages_sent"])
	}

	if got := ask("!shutdown"); got != "!bye" {
		t.Errorf("!shutdown answered %q, want !bye", got)
	}
	<-stopped
}
