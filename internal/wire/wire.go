// Package wire is the shared binary codec of the message-exchange
// layer. The paper (§5) builds the runtime on raw message exchange
// instead of RPC/RMI precisely because raw messages leave room for
// communication optimisation — aggregation, caching, asynchrony — and
// those optimisations need a compact, allocation-light encoding that
// both the runtime (payload bodies) and the TCP transport (frame
// envelopes) agree on.
//
// The codec is a hand-rolled binary format: varint integers,
// length-prefixed strings and arrays, fixed 8-byte floats. It replaces
// the per-message gob encoders the runtime and transport used to
// create, which re-transmitted type descriptions on every message and
// dominated bytes-on-wire for small dependence messages.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Value kinds. A Value is the wire form of a vm.Value: objects travel
// as global references (home node, id, class), strings and primitives
// by value, arrays by deep copy (the dependence data of §4.2).
const (
	KNull uint8 = iota
	KInt
	KFloat
	KStr
	KObj
	KArr
)

// Value is the codec's value model (the runtime's former wireValue,
// moved behind the codec so transport and runtime share one format).
// Only the fields relevant to Kind are encoded.
type Value struct {
	Kind  uint8
	Int   int64
	Float float64
	Str   string
	// Object reference fields.
	Node  int
	ID    int64
	Class string
	// Array payload.
	Elem string
	Arr  []Value
}

// appendUvarint, appendVarint, appendString and appendFloat are the
// four primitive encoders; every message below is composed from them.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

func appendUint16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Append encodes the value onto b and returns the extended slice.
func (v *Value) Append(b []byte) []byte {
	b = append(b, v.Kind)
	switch v.Kind {
	case KNull:
	case KInt:
		b = appendVarint(b, v.Int)
	case KFloat:
		b = appendFloat(b, v.Float)
	case KStr:
		b = appendString(b, v.Str)
	case KObj:
		b = appendUvarint(b, uint64(v.Node))
		b = appendVarint(b, v.ID)
		b = appendString(b, v.Class)
	case KArr:
		b = appendString(b, v.Elem)
		b = appendUvarint(b, uint64(len(v.Arr)))
		for i := range v.Arr {
			b = v.Arr[i].Append(b)
		}
	}
	return b
}

func appendValues(b []byte, vs []Value) []byte {
	b = appendUvarint(b, uint64(len(vs)))
	for i := range vs {
		b = vs[i].Append(b)
	}
	return b
}

// Reader decodes codec primitives from a byte slice. Methods report
// truncation or corruption through the sticky error returned by Err.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Rest returns the undecoded remainder of the buffer.
func (r *Reader) Rest() []byte { return r.buf[r.off:] }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Byte decodes one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated byte at %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uint16 decodes a fixed two-byte big-endian integer.
func (r *Reader) Uint16() uint16 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 2 {
		r.fail("truncated uint16 at %d", r.off)
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

// Bool decodes a one-byte boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint decodes a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad varint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.buf)-r.off) < n {
		r.fail("truncated string of %d bytes at %d", n, r.off)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// symMu guards the decoder's symbol table. Protocol symbols — class
// names, member keys, array element tags — come from the finite set
// the compiler emitted, but every message re-transmits them; interning
// makes steady-state decoding of those fields allocation-free. Data
// strings (values, error text) never pass through here, so the table
// stays bounded by the program's own name set.
var (
	symMu  sync.RWMutex
	symTab = map[string]string{}
)

func internSym(b []byte) string {
	symMu.RLock()
	s, ok := symTab[string(b)] // no-copy map probe
	symMu.RUnlock()
	if ok {
		return s
	}
	symMu.Lock()
	s, ok = symTab[string(b)]
	if !ok {
		s = string(b)
		symTab[s] = s
	}
	symMu.Unlock()
	return s
}

// Sym decodes a length-prefixed string through the symbol table: for
// protocol-level identifiers drawn from a finite set, not user data.
func (r *Reader) Sym() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.buf)-r.off) < n {
		r.fail("truncated string of %d bytes at %d", n, r.off)
		return ""
	}
	s := internSym(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Float decodes a fixed 8-byte float64.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.fail("truncated float at %d", r.off)
		return 0
	}
	f := math.Float64frombits(binary.BigEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return f
}

// maxCount bounds decoded collection lengths so corrupted frames fail
// instead of attempting enormous allocations.
const maxCount = 1 << 28

func (r *Reader) count() int {
	n := r.Uvarint()
	if r.err == nil && n > maxCount {
		r.fail("collection length %d too large", n)
	}
	// Every element takes at least one encoded byte, so a count
	// exceeding the remaining buffer is corrupt — reject it before
	// attempting the up-front slice allocation.
	if r.err == nil && n > uint64(len(r.buf)-r.off) {
		r.fail("collection length %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Value decodes one Value.
func (r *Reader) Value() Value {
	var v Value
	v.Kind = r.Byte()
	switch v.Kind {
	case KNull:
	case KInt:
		v.Int = r.Varint()
	case KFloat:
		v.Float = r.Float()
	case KStr:
		v.Str = r.String()
	case KObj:
		v.Node = int(r.Uvarint())
		v.ID = r.Varint()
		v.Class = r.Sym()
	case KArr:
		v.Elem = r.Sym()
		n := r.count()
		if r.err != nil {
			return v
		}
		v.Arr = make([]Value, n)
		for i := 0; i < n; i++ {
			v.Arr[i] = r.Value()
			if r.err != nil {
				return v
			}
		}
	default:
		r.fail("unknown value kind %d", v.Kind)
	}
	return v
}

// valuesPool recycles decoded []Value lists through PutValues, with
// the two-level box scheme of GetBuf (boxes cycle through the pool,
// slices travel with the decoded message).
var valuesPool = sync.Pool{New: func() any { return new(valuesBox) }}

type valuesBox struct{ s []Value }

func getValues(n int) []Value {
	b := valuesPool.Get().(*valuesBox)
	s := b.s
	b.s = nil
	valuesPool.Put(b)
	if cap(s) < n {
		return make([]Value, n)
	}
	return s[:n]
}

// PutValues recycles a value list decoded by Values once the message
// it belongs to has been fully served. Values extracted from the list
// (including nested array contents) live on independently; only the
// list's backing store is reused. Callers that retain the slice must
// simply not call this — an unreturned list is garbage-collected as
// before.
func PutValues(s []Value) {
	if cap(s) == 0 || cap(s) > 256 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	b := valuesPool.Get().(*valuesBox)
	b.s = s
	valuesPool.Put(b)
}

// Values decodes a length-prefixed []Value. The returned slice may
// come from the recycle pool (see PutValues); decoding fills every
// slot, so recycled capacity is never observable.
func (r *Reader) Values() []Value {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := getValues(n)
	for i := 0; i < n; i++ {
		out[i] = r.Value()
		if r.err != nil {
			return nil
		}
	}
	return out
}
