package bytecode

import (
	"fmt"
	"strings"
	"sync"
)

// Type descriptors follow the JVM grammar:
//
//	I        int (64-bit in this VM)
//	J        long
//	F        float (float64 in this VM)
//	Z        boolean
//	V        void
//	T        string (MJ's built-in string type)
//	LName;   class reference
//	[D       array of D
//
// Method descriptors are "(" descriptors ")" descriptor, e.g. "(IT)LAccount;".

// Descriptor kinds returned by DescKind.
const (
	DescInt = iota
	DescLong
	DescFloat
	DescBool
	DescVoid
	DescString
	DescClass
	DescArray
)

// DescKind classifies a type descriptor.
func DescKind(d string) int {
	if d == "" {
		return DescVoid
	}
	switch d[0] {
	case 'I':
		return DescInt
	case 'J':
		return DescLong
	case 'F':
		return DescFloat
	case 'Z':
		return DescBool
	case 'V':
		return DescVoid
	case 'T':
		return DescString
	case 'L':
		return DescClass
	case '[':
		return DescArray
	}
	return DescVoid
}

// IsRef reports whether values of the descriptor are references
// (classes, arrays, strings or null).
func IsRef(d string) bool {
	k := DescKind(d)
	return k == DescClass || k == DescArray || k == DescString
}

// IsIntLike reports whether the descriptor is stored in an int64 slot.
func IsIntLike(d string) bool {
	k := DescKind(d)
	return k == DescInt || k == DescLong || k == DescBool
}

// ClassOf extracts the class name from an "LName;" descriptor.
func ClassOf(d string) string {
	if len(d) < 3 || d[0] != 'L' || d[len(d)-1] != ';' {
		panic(fmt.Sprintf("bytecode: %q is not a class descriptor", d))
	}
	return d[1 : len(d)-1]
}

// ClassDesc builds the descriptor for a class name.
func ClassDesc(name string) string { return "L" + name + ";" }

// descCache memoizes ParseMethodDesc results. Descriptors come from
// constant pools, so the working set is the program's method set —
// small and immutable — while the interpreter parses one per invoke
// instruction: the cache turns that per-call allocation into a lookup.
var descCache sync.Map // string -> *cachedDesc

type cachedDesc struct {
	params []string
	ret    string
}

// ParseMethodDescCached is ParseMethodDesc behind a process-wide
// memo. The returned params slice is shared — callers must treat it
// as read-only. Malformed descriptors are not cached (error paths are
// cold by construction).
func ParseMethodDescCached(d string) (params []string, ret string, err error) {
	if v, ok := descCache.Load(d); ok {
		c := v.(*cachedDesc)
		return c.params, c.ret, nil
	}
	params, ret, err = ParseMethodDesc(d)
	if err != nil {
		return nil, "", err
	}
	descCache.Store(d, &cachedDesc{params: params, ret: ret})
	return params, ret, nil
}

// ParseMethodDesc splits a method descriptor into parameter descriptors
// and the return descriptor.
func ParseMethodDesc(d string) (params []string, ret string, err error) {
	if len(d) < 3 || d[0] != '(' {
		return nil, "", fmt.Errorf("bytecode: bad method descriptor %q", d)
	}
	i := 1
	for i < len(d) && d[i] != ')' {
		start := i
		for i < len(d) && d[i] == '[' {
			i++
		}
		if i >= len(d) {
			return nil, "", fmt.Errorf("bytecode: truncated descriptor %q", d)
		}
		switch d[i] {
		case 'I', 'J', 'F', 'Z', 'T':
			i++
		case 'L':
			j := strings.IndexByte(d[i:], ';')
			if j < 0 {
				return nil, "", fmt.Errorf("bytecode: unterminated class in %q", d)
			}
			i += j + 1
		default:
			return nil, "", fmt.Errorf("bytecode: bad type char %q in %q", d[i], d)
		}
		params = append(params, d[start:i])
	}
	if i >= len(d) || d[i] != ')' {
		return nil, "", fmt.Errorf("bytecode: missing ')' in %q", d)
	}
	ret = d[i+1:]
	if ret == "" {
		return nil, "", fmt.Errorf("bytecode: missing return type in %q", d)
	}
	return params, ret, nil
}
