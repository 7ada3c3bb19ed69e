package vm_test

import (
	"strings"
	"testing"

	"autodist/internal/compile"
	"autodist/internal/vm"
)

// runMain compiles src, runs main, and returns captured output.
func runMain(t *testing.T, src string) string {
	t.Helper()
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := vm.New(bp)
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	var out strings.Builder
	m.Out = &out
	m.MaxSteps = 50_000_000
	if err := m.RunMain(); err != nil {
		t.Fatalf("RunMain: %v\noutput so far:\n%s", err, out.String())
	}
	return out.String()
}

func TestArithmeticAndPrint(t *testing.T) {
	out := runMain(t, `
class Main {
	static void main() {
		int a = 7;
		int b = 3;
		System.println("" + (a + b));
		System.println("" + (a - b));
		System.println("" + (a * b));
		System.println("" + (a / b));
		System.println("" + (a % b));
		System.println("" + (a << 2));
		System.println("" + (a >> 1));
		System.println("" + (a & b));
		System.println("" + (a | b));
		System.println("" + (a ^ b));
		System.println("" + (-a));
	}
}`)
	want := "10\n4\n21\n2\n1\n28\n3\n3\n7\n4\n-7\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestFloatArithmetic(t *testing.T) {
	out := runMain(t, `
class Main {
	static void main() {
		float x = 1.5;
		float y = x * 2.0 + 0.25;
		System.println("" + y);
		System.println("" + (y / 0.5));
		System.println("" + Math.sqrt(16.0));
		int i = (int) 3.9;
		System.println("" + i);
		float z = 2;   // int → float widening
		System.println("" + z);
	}
}`)
	want := "3.25\n6.5\n4\n3\n2\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestControlFlow(t *testing.T) {
	out := runMain(t, `
class Main {
	static void main() {
		int s = 0;
		for (int i = 1; i <= 10; i++) {
			s += i;
		}
		System.println("" + s);
		int n = 0;
		while (s > 0) { s = s / 2; n++; }
		System.println("" + n);
		if (n == 6 && s == 0) { System.println("ok"); } else { System.println("bad"); }
		boolean flag = n > 100 || s == 0;
		System.println("" + flag);
	}
}`)
	want := "55\n6\nok\ntrue\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestObjectsVirtualDispatchAndFields(t *testing.T) {
	out := runMain(t, `
class Animal {
	string name;
	Animal(string n) { this.name = n; }
	string speak() { return "..."; }
	string describe() { return this.name + " says " + this.speak(); }
}
class Dog extends Animal {
	Dog(string n) { this.name = n; }
	string speak() { return "woof"; }
}
class Cat extends Animal {
	Cat(string n) { this.name = n; }
	string speak() { return "meow"; }
}
class Main {
	static void main() {
		Animal[] zoo = new Animal[3];
		zoo[0] = new Dog("rex");
		zoo[1] = new Cat("tom");
		zoo[2] = new Animal("blob");
		for (int i = 0; i < zoo.length; i++) {
			System.println(zoo[i].describe());
		}
	}
}`)
	want := "rex says woof\ntom says meow\nblob says ...\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestBankExampleRuns(t *testing.T) {
	out := runMain(t, `
class Account {
	int id;
	string name;
	int savings;
	int checking;
	int loan;
	Account(int id, string name, int savings, int checking, int loan) {
		this.id = id; this.name = name; this.savings = savings;
		this.checking = checking; this.loan = loan;
	}
	int getId() { return this.id; }
	int getSavings() { return this.savings; }
	int getBalance() { return this.savings + this.checking; }
	void setBalance(int b) { this.savings = b; }
}
class Bank {
	string name;
	int numCustomers;
	Vector accounts;
	Bank(string name, int numCustomers, int initialBalance) {
		this.name = name;
		this.numCustomers = numCustomers;
		this.accounts = new Vector();
		this.initializeAccounts(initialBalance);
	}
	void initializeAccounts(int initialBalance) {
		int n = this.numCustomers;
		while (n > 0) {
			Account a = new Account(n, "cust" + n, initialBalance, 0, 0);
			this.accounts.add(a);
			n--;
		}
	}
	void openAccount(Account a) { this.accounts.add(a); }
	Account getCustomer(int customerID) {
		for (int i = 0; i < this.accounts.size(); i++) {
			Account a = (Account) this.accounts.get(i);
			if (a.getId() == customerID) { return a; }
		}
		return null;
	}
	boolean withdraw(int customerID, int amount) {
		Account a = this.getCustomer(customerID);
		if (a != null) {
			a.setBalance(a.getBalance() - amount);
			return true;
		} else { return false; }
	}
	static void main() {
		Bank merchants = new Bank("Merchants", 100, 10000);
		Account a4 = new Account(1000, "ABC Market", 1000000, 100000, 20000000);
		merchants.openAccount(a4);
		boolean ok = merchants.withdraw(1000, 900);
		Account back = merchants.getCustomer(1000);
		System.println("ok=" + ok + " savings=" + back.getSavings());
	}
}`)
	want := "ok=true savings=1099100\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestStaticFields(t *testing.T) {
	out := runMain(t, `
class Counter {
	static int count;
	static void bump() { Counter.count += 1; }
}
class Main {
	static void main() {
		Counter.bump();
		Counter.bump();
		Counter.bump();
		System.println("" + Counter.count);
	}
}`)
	if out != "3\n" {
		t.Errorf("output = %q, want 3", out)
	}
}

func TestStringsAndNatives(t *testing.T) {
	out := runMain(t, `
class Main {
	static void main() {
		string s = "hello" + " " + "world";
		System.println("" + Str.length(s));
		System.println(Str.substring(s, 0, 5));
		System.println("" + Str.equals(s, "hello world"));
		System.println("" + Str.indexOf(s, "world"));
		System.println("" + Str.charAt(s, 0));
		System.println(Str.fromChar(65));
		if (s == "hello world") { System.println("value-eq"); }
	}
}`)
	want := "11\nhello\ntrue\n6\n104\nA\nvalue-eq\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestInstanceofAndCasts(t *testing.T) {
	out := runMain(t, `
class A {}
class B extends A {}
class Main {
	static void main() {
		A x = new B();
		System.println("" + (x instanceof B));
		System.println("" + (x instanceof A));
		B y = (B) x;
		Object o = new int[4];
		int[] xs = (int[]) o;
		xs[2] = 9;
		System.println("" + xs[2]);
		A z = new A();
		System.println("" + (z instanceof B));
	}
}`)
	want := "true\ntrue\n9\nfalse\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := map[string]string{
		`class Main { static void main() { int[] a = new int[2]; a[5] = 1; } }`:                             "out of bounds",
		`class Main { static void main() { int x = 1 / 0; System.println("" + x);} }`:                       "division by zero",
		`class A {} class B extends A {} class Main { static void main() { A a = new A(); B b = (B) a; } }`: "cannot cast",
	}
	for src, wantSub := range cases {
		bp, _, err := compile.CompileSource(src)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		m, err := vm.New(bp)
		if err != nil {
			t.Fatal(err)
		}
		m.Out = &strings.Builder{}
		err = m.RunMain()
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("src %q: err = %v, want substring %q", src, err, wantSub)
		}
	}
}

func TestNullDereference(t *testing.T) {
	src := `
class A { int f; }
class Main { static void main() { A a = null; a.f = 1; } }`
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := vm.New(bp)
	m.Out = &strings.Builder{}
	err = m.RunMain()
	if err == nil || !strings.Contains(err.Error(), "putfield") {
		t.Errorf("err = %v, want null putfield failure", err)
	}
	// Error should carry a stack trace.
	if !strings.Contains(err.Error(), "Main.main") {
		t.Errorf("error missing stack trace: %v", err)
	}
}

func TestRecursion(t *testing.T) {
	out := runMain(t, `
class Main {
	static int fib(int n) {
		if (n < 2) { return n; }
		return fib(n - 1) + fib(n - 2);
	}
	static void main() {
		System.println("" + fib(20));
	}
}`)
	if out != "6765\n" {
		t.Errorf("fib(20) = %q, want 6765", out)
	}
}

func TestHooksFire(t *testing.T) {
	src := `
class Work {
	int run(int n) { return n * 2; }
}
class Main {
	static void main() {
		Work w = new Work();
		int s = 0;
		for (int i = 0; i < 100; i++) { s += w.run(i); }
		System.println("" + s);
	}
}`
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := vm.New(bp)
	m.Out = &strings.Builder{}
	var enters, exits, allocs, samples int
	m.Hooks.MethodEnter = func(c, meth string) { enters++ }
	m.Hooks.MethodExit = func(c, meth string) { exits++ }
	m.Hooks.OnAlloc = func(c string, n int) { allocs++ }
	m.Hooks.OnQuantum = func(st []vm.StackEntry) {
		samples++
		if len(st) == 0 {
			t.Error("empty stack in quantum sample")
		}
	}
	m.Hooks.Quantum = 50
	if err := m.RunMain(); err != nil {
		t.Fatal(err)
	}
	if enters == 0 || enters != exits {
		t.Errorf("enters=%d exits=%d", enters, exits)
	}
	if enters < 101 { // main + ctor + 100 × run
		t.Errorf("enters=%d, want ≥ 101", enters)
	}
	if allocs != 1 {
		t.Errorf("allocs=%d, want 1", allocs)
	}
	if samples == 0 {
		t.Error("sampler never fired")
	}
}

func TestSimulatedClockScalesWithSpeed(t *testing.T) {
	src := `
class Main {
	static void main() {
		int s = 0;
		for (int i = 0; i < 10000; i++) { s += i * i; }
		System.println("" + s);
	}
}`
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cps float64) float64 {
		m, _ := vm.New(bp.Clone())
		m.Out = &strings.Builder{}
		m.Time = &vm.TimeModel{CyclesPerSecond: cps}
		if err := m.RunMain(); err != nil {
			t.Fatal(err)
		}
		return m.SimSeconds()
	}
	slow := run(800e6)
	fast := run(1700e6)
	if slow <= 0 || fast <= 0 {
		t.Fatal("simulated time not accumulated")
	}
	ratio := slow / fast
	if ratio < 2.0 || ratio > 2.3 {
		t.Errorf("speed ratio = %.3f, want ≈ 2.125 (1700/800)", ratio)
	}
}

func TestCallMethodHelper(t *testing.T) {
	src := `
class Calc {
	int add(int a, int b) { return a + b; }
	static int twice(int x) { return 2 * x; }
}
class Main { static void main() {} }`
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := vm.New(bp)
	m.Out = &strings.Builder{}
	v, err := m.CallMethod("Calc", "twice", "(I)I", []vm.Value{int64(21)})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int64) != 42 {
		t.Errorf("twice(21) = %v", v)
	}
	calc := m.NewObject(m.Class("Calc"))
	v, err = m.CallMethod("Calc", "add", "(II)I", []vm.Value{calc, int64(2), int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int64) != 5 {
		t.Errorf("add(2,3) = %v", v)
	}
}

func TestVectorGrowth(t *testing.T) {
	out := runMain(t, `
class Item { int v; Item(int v) { this.v = v; } }
class Main {
	static void main() {
		Vector vec = new Vector();
		for (int i = 0; i < 100; i++) {
			vec.add(new Item(i));
		}
		int sum = 0;
		for (int i = 0; i < vec.size(); i++) {
			Item it = (Item) vec.get(i);
			sum += it.v;
		}
		System.println("" + sum);
	}
}`)
	if out != "4950\n" {
		t.Errorf("output = %q, want 4950", out)
	}
}

func TestLongAndWidening(t *testing.T) {
	out := runMain(t, `
class Main {
	static void main() {
		long big = 4000000000L;
		long sum = big + big;
		System.println("" + sum);
		float f = sum;
		System.println("" + (f / 2.0));
	}
}`)
	want := "8000000000\n4e+09\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestCompoundAssignOnFieldsAndArrays(t *testing.T) {
	out := runMain(t, `
class Box { int v; float g; string s; }
class Main {
	static void main() {
		Box b = new Box();
		b.v = 10;
		b.v += 5;
		b.v *= 2;
		b.v -= 3;
		b.v /= 2;
		System.println("" + b.v);
		b.g = 1.0;
		b.g /= 4.0;
		System.println("" + b.g);
		b.s = "a";
		b.s += "b";
		b.s += 1;
		System.println(b.s);
		int[] xs = new int[3];
		xs[1] += 7;
		xs[1] *= 3;
		xs[1]++;
		System.println("" + xs[1]);
		b.v++;
		System.println("" + b.v);
	}
}`)
	want := "13\n0.25\nab1\n22\n14\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestStepLimit(t *testing.T) {
	src := `class Main { static void main() { while (true) { } } }`
	bp, _, err := compile.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := vm.New(bp)
	m.Out = &strings.Builder{}
	m.MaxSteps = 10000
	if err := m.RunMain(); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v, want step limit", err)
	}
}

func TestShadowedOverloadsAcrossHierarchy(t *testing.T) {
	out := runMain(t, `
class Base {
	int get() { return 1; }
}
class Mid extends Base {
	int get() { return 2; }
}
class Leaf extends Mid {
}
class Main {
	static void main() {
		Base b = new Leaf();
		System.println("" + b.get());
	}
}`)
	if out != "2\n" {
		t.Errorf("output = %q, want 2 (nearest override)", out)
	}
}

// TestMayHoldArray: a class may hold an array when a field, its own or
// inherited, is array-typed or Object-typed (MJ lets an Object hold an
// array); scalar, string and other class-typed fields cannot.
func TestMayHoldArray(t *testing.T) {
	bp, _, err := compile.CompileSource(`
class Plain { int a; float f; string s; Plain next; }
class Arr { int[] xs; }
class Obj { Object o; }
class Sub extends Arr { int b; }
class Main { static void main() { } }
`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(bp)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]bool{"Plain": false, "Arr": true, "Obj": true, "Sub": true} {
		c := m.Class(name)
		if c == nil {
			t.Fatalf("class %s not loaded", name)
		}
		if got := c.MayHoldArray(); got != want {
			t.Errorf("%s.MayHoldArray() = %v, want %v", name, got, want)
		}
	}
}
