package autodist_test

// Counters (runtime.NodeStats) is the one declaration of the runtime's
// counters; RunResult keeps a flat int64 twin of each because the
// benchmark subtracts RunResult's int64 fields by reflection. Both sides
// are copied by name, so these tests are what make that safe: a counter
// without a twin, or a misspelled one, fails here instead of reading 0.

import (
	"reflect"
	"testing"

	"autodist"
	"autodist/internal/metrics"
)

// twinName is RunResult's name for a counter.
func twinName(counter string) string {
	if counter == "MessagesSent" {
		return "Messages"
	}
	return counter
}

func TestCounterLockstep(t *testing.T) {
	int64Type := reflect.TypeFor[int64]()
	ct, rt := reflect.TypeFor[autodist.Counters](), reflect.TypeFor[autodist.RunResult]()
	twins := map[string]bool{}
	for i := range ct.NumField() {
		name := twinName(ct.Field(i).Name)
		twins[name] = true
		if f, ok := rt.FieldByName(name); !ok || f.Type != int64Type {
			t.Errorf("counter %s has no int64 twin RunResult.%s", ct.Field(i).Name, name)
		}
	}
	for i := range rt.NumField() {
		if f := rt.Field(i); f.Type == int64Type && !twins[f.Name] && f.Name != "OutputDropped" {
			t.Errorf("RunResult.%s has no counter twin", f.Name)
		}
	}

	// Counter i holds i+1: each value must land in its own twin, and
	// come back out of Counters unchanged.
	var c autodist.Counters
	cv := reflect.ValueOf(&c).Elem()
	for i := range cv.NumField() {
		cv.Field(i).SetInt(int64(i + 1))
	}
	var r autodist.RunResult
	r.FillStats(c)
	rv := reflect.ValueOf(&r).Elem()
	for i := range ct.NumField() {
		name := twinName(ct.Field(i).Name)
		if got := rv.FieldByName(name).Int(); got != int64(i+1) {
			t.Errorf("RunResult.%s = %d after fill, want %d", name, got, i+1)
		}
	}
	if r.OutputDropped != 0 || r.Wall != 0 {
		t.Errorf("fill wrote non-counter fields: OutputDropped %d, Wall %v", r.OutputDropped, r.Wall)
	}
	if back := r.Counters(); back != c {
		t.Errorf("Counters() = %+v, want %+v", back, c)
	}
}

// TestCounterWalkZeroAlloc: every node runs this load-and-add for every
// invocation (retireThread, InvokeEntry), so it must not allocate.
func TestCounterWalkZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	live := autodist.Counters{MessagesSent: 2, BytesSent: 40}
	var total autodist.Counters
	if allocs := testing.AllocsPerRun(100, func() { metrics.Add(&total, metrics.Load(&live)) }); allocs != 0 {
		t.Errorf("counter load+add: %.1f allocations, want 0", allocs)
	}
	if total.MessagesSent != 2*101 {
		t.Errorf("MessagesSent summed to %d over 101 runs, want %d", total.MessagesSent, 2*101)
	}
}
