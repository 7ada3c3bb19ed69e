// Package metrics walks counter structs: structs whose every field is an
// int64 counter, such as runtime.NodeStats. The struct declaration is
// the one list of counters; Load, Add and Each visit its fields in
// declaration order, so a new field is loaded, summed and reported
// without a second list to keep in step.
package metrics

import (
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

// names caches each counter struct type's field names: reflect.Type →
// []string.
var names sync.Map

// namesOf returns T's field names. It panics unless T is a struct of
// int64 fields laid out back to back, the layout fields relies on.
func namesOf[T any]() []string {
	t := reflect.TypeFor[T]()
	if ns, ok := names.Load(t); ok {
		return ns.([]string)
	}
	ns := make([]string, t.NumField())
	for i := range ns {
		f := t.Field(i)
		if f.Type != reflect.TypeFor[int64]() || f.Offset != uintptr(i)*8 {
			panic("metrics: " + t.String() + "." + f.Name + " is not an int64 counter")
		}
		ns[i] = f.Name
	}
	names.Store(t, ns)
	return ns
}

// fields views *p as a slice of its counters.
func fields[T any](p *T) []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(p)), len(namesOf[T]()))
}

// Load returns a copy of *p with every counter read atomically, so it
// may run while other goroutines update *p with atomic adds.
func Load[T any](p *T) T {
	var v T
	dst, src := fields(&v), fields(p)
	for i := range src {
		dst[i] = atomic.LoadInt64(&src[i])
	}
	return v
}

// Add adds every counter of d into the matching counter of *p. The adds
// are plain: *p must not be shared.
func Add[T any](p *T, d T) {
	dst, src := fields(p), fields(&d)
	for i := range dst {
		dst[i] += src[i]
	}
}

// Each calls fn with the name and value of every counter of *p, in
// declaration order. The reads are plain: walk a Load copy of a live
// struct.
func Each[T any](p *T, fn func(name string, v int64)) {
	vs := fields(p)
	for i, name := range namesOf[T]() {
		fn(name, vs[i])
	}
}
