package bytecode

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// Access flags for fields and methods.
const (
	AccStatic uint16 = 1 << iota
	AccNative        // implemented by the VM (built-in runtime classes)
	AccSynthetic
)

// Field describes one field of a class.
type Field struct {
	Flags uint16
	Name  string
	Desc  string
}

// IsStatic reports whether the field is a class (static) field.
func (f *Field) IsStatic() bool { return f.Flags&AccStatic != 0 }

// Method describes one method of a class.
type Method struct {
	Flags     uint16
	Name      string
	Desc      string
	MaxLocals int
	Code      []Instr
}

// IsStatic reports whether the method is static.
func (m *Method) IsStatic() bool { return m.Flags&AccStatic != 0 }

// IsNative reports whether the method is implemented by the VM.
func (m *Method) IsNative() bool { return m.Flags&AccNative != 0 }

// IsEntrypoint reports whether the method is an invocable service
// entrypoint when declared on the program's main class: static,
// non-native, non-synthetic, and not a constructor. The one predicate
// shared by the analysis roots, the rewriter's entrypoint table and
// the runtime's fallback resolution.
func (m *Method) IsEntrypoint() bool {
	return m.IsStatic() && !m.IsNative() && m.Flags&AccSynthetic == 0 && m.Name != "<init>"
}

// Key returns the "name:desc" key used for method lookup.
func (m *Method) Key() string { return m.Name + ":" + m.Desc }

// ClassFile is one compiled class: the unit the loader reads, the
// analyses consume and the rewriter transforms.
type ClassFile struct {
	Pool    *ConstPool
	Name    string
	Super   string // "" for no superclass
	Fields  []Field
	Methods []Method
}

// NewClassFile returns an empty class with a fresh pool.
func NewClassFile(name, super string) *ClassFile {
	return &ClassFile{Pool: NewConstPool(), Name: name, Super: super}
}

// Method returns the method with the given name and descriptor, or nil.
func (cf *ClassFile) Method(name, desc string) *Method {
	for i := range cf.Methods {
		if cf.Methods[i].Name == name && cf.Methods[i].Desc == desc {
			return &cf.Methods[i]
		}
	}
	return nil
}

// MethodByName returns the first method with the given name, or nil.
func (cf *ClassFile) MethodByName(name string) *Method {
	for i := range cf.Methods {
		if cf.Methods[i].Name == name {
			return &cf.Methods[i]
		}
	}
	return nil
}

// Field returns the field with the given name, or nil.
func (cf *ClassFile) Field(name string) *Field {
	for i := range cf.Fields {
		if cf.Fields[i].Name == name {
			return &cf.Fields[i]
		}
	}
	return nil
}

const (
	magic   = 0x4d4a4346 // "MJCF"
	version = 1
)

// Encode serialises the class file to its binary form. The byte length
// of this form is what Table 1 reports as the benchmark size in KB.
func (cf *ClassFile) Encode() ([]byte, error) {
	var buf bytes.Buffer
	w := func(v any) {
		_ = binary.Write(&buf, binary.BigEndian, v)
	}
	w(uint32(magic))
	w(uint16(version))

	// Intern structural names so decoding can resolve them.
	nameIdx := cf.Pool.AddUtf8(cf.Name)
	superIdx := uint16(0)
	if cf.Super != "" {
		superIdx = cf.Pool.AddUtf8(cf.Super)
	}
	type fieldIdx struct{ name, desc uint16 }
	fIdx := make([]fieldIdx, len(cf.Fields))
	for i, f := range cf.Fields {
		fIdx[i] = fieldIdx{cf.Pool.AddUtf8(f.Name), cf.Pool.AddUtf8(f.Desc)}
	}
	mIdx := make([]fieldIdx, len(cf.Methods))
	for i := range cf.Methods {
		m := &cf.Methods[i]
		mIdx[i] = fieldIdx{cf.Pool.AddUtf8(m.Name), cf.Pool.AddUtf8(m.Desc)}
	}

	// Pool (slot 0 skipped).
	w(uint16(cf.Pool.Len()))
	for i := 1; i < cf.Pool.Len(); i++ {
		e := cf.Pool.entries[i]
		w(uint8(e.Tag))
		switch e.Tag {
		case TagUtf8:
			if len(e.Str) > math.MaxUint16 {
				return nil, fmt.Errorf("bytecode: utf8 constant too long (%d bytes)", len(e.Str))
			}
			w(uint16(len(e.Str)))
			buf.WriteString(e.Str)
		case TagInt:
			w(e.Int)
		case TagFloat:
			w(math.Float64bits(e.Float))
		case TagClass:
			w(e.Index)
		case TagFieldRef, TagMethodRef:
			w(e.Class)
			w(e.Name)
			w(e.Desc)
		default:
			return nil, fmt.Errorf("bytecode: cannot encode pool tag %d", e.Tag)
		}
	}

	w(nameIdx)
	w(superIdx)

	w(uint16(len(cf.Fields)))
	for i, f := range cf.Fields {
		w(f.Flags)
		w(fIdx[i].name)
		w(fIdx[i].desc)
	}

	w(uint16(len(cf.Methods)))
	for i := range cf.Methods {
		m := &cf.Methods[i]
		w(m.Flags)
		w(mIdx[i].name)
		w(mIdx[i].desc)
		w(uint16(m.MaxLocals))
		w(uint32(len(m.Code)))
		for _, in := range m.Code {
			w(uint8(in.Op))
			switch in.Op.Operands() {
			case 1:
				w(in.A)
			case 2:
				w(in.A)
				w(in.B)
			}
		}
	}
	return buf.Bytes(), nil
}

// Decode parses a binary class file.
func Decode(data []byte) (*ClassFile, error) {
	r := bytes.NewReader(data)
	rd := func(v any) error {
		return binary.Read(r, binary.BigEndian, v)
	}
	var mg uint32
	var ver uint16
	if err := rd(&mg); err != nil || mg != magic {
		return nil, fmt.Errorf("bytecode: bad magic %#x", mg)
	}
	if err := rd(&ver); err != nil || ver != version {
		return nil, fmt.Errorf("bytecode: unsupported version %d", ver)
	}
	cf := &ClassFile{Pool: NewConstPool()}
	var poolLen uint16
	if err := rd(&poolLen); err != nil {
		return nil, err
	}
	for i := uint16(1); i < poolLen; i++ {
		var tag uint8
		if err := rd(&tag); err != nil {
			return nil, err
		}
		e := PoolEntry{Tag: PoolTag(tag)}
		switch e.Tag {
		case TagUtf8:
			var n uint16
			if err := rd(&n); err != nil {
				return nil, err
			}
			s := make([]byte, n)
			if _, err := io.ReadFull(r, s); err != nil {
				return nil, err
			}
			e.Str = string(s)
		case TagInt:
			if err := rd(&e.Int); err != nil {
				return nil, err
			}
		case TagFloat:
			var bits uint64
			if err := rd(&bits); err != nil {
				return nil, err
			}
			e.Float = math.Float64frombits(bits)
		case TagClass:
			if err := rd(&e.Index); err != nil {
				return nil, err
			}
		case TagFieldRef, TagMethodRef:
			if err := rd(&e.Class); err != nil {
				return nil, err
			}
			if err := rd(&e.Name); err != nil {
				return nil, err
			}
			if err := rd(&e.Desc); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("bytecode: unknown pool tag %d at %d", tag, i)
		}
		e.seal()
		cf.Pool.entries = append(cf.Pool.entries, e)
	}
	// Rebuild the dedup index so later additions reuse entries.
	cf.Pool.rebuildLookup()

	var nameIdx, superIdx uint16
	if err := rd(&nameIdx); err != nil {
		return nil, err
	}
	if err := rd(&superIdx); err != nil {
		return nil, err
	}
	cf.Name = cf.Pool.Utf8(nameIdx)
	if superIdx != 0 {
		cf.Super = cf.Pool.Utf8(superIdx)
	}

	var nf uint16
	if err := rd(&nf); err != nil {
		return nil, err
	}
	for i := 0; i < int(nf); i++ {
		var flags, ni, di uint16
		if err := rd(&flags); err != nil {
			return nil, err
		}
		if err := rd(&ni); err != nil {
			return nil, err
		}
		if err := rd(&di); err != nil {
			return nil, err
		}
		cf.Fields = append(cf.Fields, Field{Flags: flags, Name: cf.Pool.Utf8(ni), Desc: cf.Pool.Utf8(di)})
	}

	var nm uint16
	if err := rd(&nm); err != nil {
		return nil, err
	}
	for i := 0; i < int(nm); i++ {
		var flags, ni, di, maxLocals uint16
		var codeLen uint32
		if err := rd(&flags); err != nil {
			return nil, err
		}
		if err := rd(&ni); err != nil {
			return nil, err
		}
		if err := rd(&di); err != nil {
			return nil, err
		}
		if err := rd(&maxLocals); err != nil {
			return nil, err
		}
		if err := rd(&codeLen); err != nil {
			return nil, err
		}
		m := Method{Flags: flags, Name: cf.Pool.Utf8(ni), Desc: cf.Pool.Utf8(di), MaxLocals: int(maxLocals)}
		m.Code = make([]Instr, codeLen)
		for j := range m.Code {
			var op uint8
			if err := rd(&op); err != nil {
				return nil, err
			}
			in := Instr{Op: Op(op)}
			if !in.Op.Valid() {
				return nil, fmt.Errorf("bytecode: invalid opcode %d in %s.%s[%d]", op, cf.Name, m.Name, j)
			}
			switch in.Op.Operands() {
			case 1:
				if err := rd(&in.A); err != nil {
					return nil, err
				}
			case 2:
				if err := rd(&in.A); err != nil {
					return nil, err
				}
				if err := rd(&in.B); err != nil {
					return nil, err
				}
			}
			m.Code[j] = in
		}
		cf.Methods = append(cf.Methods, m)
	}
	return cf, nil
}

// rebuildLookup reconstructs the dedup map after decoding.
func (p *ConstPool) rebuildLookup() {
	p.lookup = make(map[string]uint16, len(p.entries))
	for i := 1; i < len(p.entries); i++ {
		e := p.entries[i]
		var key string
		switch e.Tag {
		case TagUtf8:
			key = "u\x00" + e.Str
		case TagInt:
			key = fmt.Sprintf("i\x00%d", e.Int)
		case TagFloat:
			key = fmt.Sprintf("f\x00%b", e.Float)
		case TagClass:
			key = fmt.Sprintf("c\x00%d", e.Index)
		case TagFieldRef:
			key = fmt.Sprintf("F\x00%d/%d/%d", e.Class, e.Name, e.Desc)
		case TagMethodRef:
			key = fmt.Sprintf("M\x00%d/%d/%d", e.Class, e.Name, e.Desc)
		}
		if _, dup := p.lookup[key]; !dup {
			p.lookup[key] = uint16(i)
		}
	}
}

// Program is a set of classes forming a complete application, keyed and
// iterable in deterministic order.
type Program struct {
	classes map[string]*ClassFile
	// MainClass names the class whose static main()V starts the
	// application.
	MainClass string
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{classes: make(map[string]*ClassFile)}
}

// Add registers a class, replacing any previous class of the same name.
func (p *Program) Add(cf *ClassFile) { p.classes[cf.Name] = cf }

// Class returns the named class or nil.
func (p *Program) Class(name string) *ClassFile { return p.classes[name] }

// Names returns all class names sorted.
func (p *Program) Names() []string {
	names := make([]string, 0, len(p.classes))
	for n := range p.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Classes returns all classes in name order.
func (p *Program) Classes() []*ClassFile {
	names := p.Names()
	out := make([]*ClassFile, len(names))
	for i, n := range names {
		out[i] = p.classes[n]
	}
	return out
}

// NumClasses returns the number of classes.
func (p *Program) NumClasses() int { return len(p.classes) }

// NumMethods returns the total method count across classes.
func (p *Program) NumMethods() int {
	n := 0
	for _, cf := range p.classes {
		n += len(cf.Methods)
	}
	return n
}

// Clone deep-copies the program (classes, pools and code), so a rewriter
// can transform one partition without disturbing the original.
func (p *Program) Clone() *Program {
	np := NewProgram()
	np.MainClass = p.MainClass
	for _, cf := range p.Classes() {
		b, err := cf.Encode()
		if err != nil {
			panic(fmt.Sprintf("bytecode: clone encode %s: %v", cf.Name, err))
		}
		nc, err := Decode(b)
		if err != nil {
			panic(fmt.Sprintf("bytecode: clone decode %s: %v", cf.Name, err))
		}
		np.Add(nc)
	}
	return np
}
