// Package vm implements the bytecode interpreter that plays the JVM's
// role in the reproduction: it hosts both the original sequential
// programs and the rewritten partitions, exposes the instrumentation and
// sampling hooks the profiler (paper §6) relies on, and can charge a
// deterministic simulated clock so the distributed-execution experiments
// (paper §7.2, Figure 11) are reproducible without the authors' two
// physical machines.
package vm

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"autodist/internal/bytecode"
)

// Value is a runtime value: int64 (MJ int/long/boolean), float64,
// string, *Object, *Array, or nil (the null reference).
type Value any

// Object is a class instance.
type Object struct {
	Class  *Class
	Fields []Value
	// ID is a VM-unique object number (used for messages, profiling
	// and debugging).
	ID int64
}

// String renders the object as ClassName@ID.
func (o *Object) String() string {
	if o == nil {
		return "null"
	}
	return fmt.Sprintf("%s@%d", o.Class.Name(), o.ID)
}

// Array is a one-dimensional array with element descriptor Elem.
type Array struct {
	Elem string
	Data []Value
	ID   int64
}

// Class is the loaded form of a bytecode.ClassFile: resolved superclass
// pointer, field layout (inherited + own) and static storage.
type Class struct {
	File  *bytecode.ClassFile
	Super *Class

	// fieldIdx maps a field name to its slot in Object.Fields.
	fieldIdx map[string]int
	// fieldDesc maps a field name to its descriptor (for zeroing).
	fieldDesc map[string]string
	numFields int
	// mayHoldArray records whether some instance field's declared type
	// admits an array: an array type, or Object (MJ lets an Object
	// variable hold an array).
	mayHoldArray bool

	// statics holds this class's own static fields (guarded by the
	// VM's staticMu — concurrent logical threads share them).
	statics map[string]Value

	// methodCache caches virtual-dispatch lookups ({name, desc} →
	// declaring class + method). A sync.Map keyed by a struct keeps
	// the steady-state hit path lock-free and allocation-free — the
	// interpreter consults it on every invoke instruction, so neither
	// a mutex nor a concatenated string key belongs here.
	methodCache sync.Map // methodKey -> *boundMethod

	// nativeCache memoizes native-dispatch lookups for the same
	// reason, keyed by the method object (unique per loaded program).
	nativeCache sync.Map // *bytecode.Method -> NativeFunc
}

// methodKey identifies a method by name and descriptor without the
// per-lookup string concatenation a combined key would cost.
type methodKey struct {
	name, desc string
}

type boundMethod struct {
	class  *Class
	method *bytecode.Method
	// callee is the compiled tier's resolved form of this binding,
	// built on first use (see VM.VirtualCallee).
	callee atomic.Pointer[Callee]
}

// Name returns the class name.
func (c *Class) Name() string { return c.File.Name }

// MayHoldArray reports whether an instance field of the class is
// declared with a type that can hold an array. It depends only on the
// declarations, so it is safe to ask while other threads write the
// fields.
func (c *Class) MayHoldArray() bool { return c.mayHoldArray }

// FieldSlot returns the field slot for name, or -1.
func (c *Class) FieldSlot(name string) int {
	if i, ok := c.fieldIdx[name]; ok {
		return i
	}
	return -1
}

// IsSubclassOf reports whether c is k or inherits from k.
func (c *Class) IsSubclassOf(k *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == k {
			return true
		}
	}
	return false
}

// zeroValue returns the default value for a descriptor: 0, 0.0, "" or null.
func zeroValue(desc string) Value {
	switch bytecode.DescKind(desc) {
	case bytecode.DescFloat:
		return float64(0)
	case bytecode.DescString:
		return ""
	case bytecode.DescClass, bytecode.DescArray:
		return nil
	default:
		return int64(0)
	}
}

// Stringify renders a value the way SCONCAT and System.println do.
func Stringify(v Value) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case *Object:
		return x.String()
	case *Array:
		return fmt.Sprintf("%s[%d]@%d", x.Elem, len(x.Data), x.ID)
	}
	return fmt.Sprintf("%v", v)
}
