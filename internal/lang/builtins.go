package lang

// Builtin native classes. These play the role of the Java standard
// library: their methods are implemented by the VM (bytecode.AccNative)
// and the dependence analyses treat them as local leaf classes that are
// replicated on every node rather than partitioned.

// BuiltinMethod describes one native static method signature.
type BuiltinMethod struct {
	Name   string
	Params []*Type
	Ret    *Type
}

// BuiltinClasses maps builtin class names to their static native
// methods. All builtin methods are static; builtin classes cannot be
// instantiated or extended.
var BuiltinClasses = map[string][]BuiltinMethod{
	"System": {
		{"print", []*Type{TString}, TVoid},
		{"println", []*Type{TString}, TVoid},
		{"println", []*Type{TInt}, TVoid},
		{"println", []*Type{TLong}, TVoid},
		{"println", []*Type{TFloat}, TVoid},
		{"currentTimeMillis", nil, TLong},
		{"nanoTime", nil, TLong},
	},
	"Math": {
		{"sqrt", []*Type{TFloat}, TFloat},
		{"sin", []*Type{TFloat}, TFloat},
		{"cos", []*Type{TFloat}, TFloat},
		{"exp", []*Type{TFloat}, TFloat},
		{"log", []*Type{TFloat}, TFloat},
		{"pow", []*Type{TFloat, TFloat}, TFloat},
		{"floor", []*Type{TFloat}, TFloat},
		{"abs", []*Type{TFloat}, TFloat},
		{"abs", []*Type{TInt}, TInt},
		{"min", []*Type{TInt, TInt}, TInt},
		{"max", []*Type{TInt, TInt}, TInt},
		{"min", []*Type{TFloat, TFloat}, TFloat},
		{"max", []*Type{TFloat, TFloat}, TFloat},
	},
	"Str": {
		{"length", []*Type{TString}, TInt},
		{"charAt", []*Type{TString, TInt}, TInt},
		{"substring", []*Type{TString, TInt, TInt}, TString},
		{"equals", []*Type{TString, TString}, TBool},
		{"compare", []*Type{TString, TString}, TInt},
		{"indexOf", []*Type{TString, TString}, TInt},
		{"valueOf", []*Type{TInt}, TString},
		{"fromChar", []*Type{TInt}, TString},
		{"hash", []*Type{TString}, TInt},
	},
}

// Descriptor returns the bytecode method descriptor of the builtin.
func (b *BuiltinMethod) Descriptor() string {
	d := "("
	for _, p := range b.Params {
		d += p.Descriptor()
	}
	return d + ")" + b.Ret.Descriptor()
}

// PreludeSource is the MJ library compiled into every program, mirroring
// the role java.lang.Vector plays in the paper's running example
// (Figures 3–4 show ST/DT java.util.Vector nodes in the graphs).
const PreludeSource = `
class Vector {
	Object[] data;
	int count;

	Vector() {
		this.data = new Object[8];
		this.count = 0;
	}

	void add(Object o) {
		if (this.count == this.data.length) {
			this.grow();
		}
		this.data[this.count] = o;
		this.count = this.count + 1;
	}

	void grow() {
		Object[] nd = new Object[this.data.length * 2];
		for (int i = 0; i < this.count; i++) {
			nd[i] = this.data[i];
		}
		this.data = nd;
	}

	Object get(int i) {
		return this.data[i];
	}

	void set(int i, Object o) {
		this.data[i] = o;
	}

	int size() {
		return this.count;
	}
}
`
