// Package bench contains the MJ re-implementations of the paper's
// benchmark suite: the Java Grande kernels (create, method, crypt,
// heapsort, moldyn, search — §7's Table 1) and the SPEC JVM98 programs
// (compress, db), plus the Table 3 profiling set (CreateBench element
// variants, FFT, MonteCarlo). Every program is deterministic, validates
// itself, and prints a small checksum so sequential and distributed
// runs can be compared bit-for-bit.
package bench

import (
	"fmt"
	"sort"
)

// Program is one registered benchmark.
type Program struct {
	// Name is the benchmark's Table 1 row name.
	Name string
	// Source is the complete MJ source.
	Source string
	// Description summarises the workload archetype.
	Description string
	// ExpectOutput, when non-empty, is the exact output a correct run
	// must produce.
	ExpectOutput string
}

var registry = map[string]Program{}

func register(p Program) {
	registry[p.Name] = p
}

// Get returns a registered program.
func Get(name string) (Program, error) {
	p, ok := registry[name]
	if !ok {
		return Program{}, fmt.Errorf("bench: unknown benchmark %q (have %v)", name, Names())
	}
	return p, nil
}

// Names lists all registered benchmarks sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table1Names returns the eight benchmarks of the paper's Table 1, in
// the paper's row order.
func Table1Names() []string {
	return []string{"create", "method", "crypt", "heapsort", "moldyn", "search", "compress", "db"}
}

// Table3Names returns the profiling benchmark set of Table 3, in the
// paper's row order.
func Table3Names() []string {
	return []string{
		"create_int", "create_long", "create_float", "create_object", "create_custom",
		"method", "fft", "heapsort", "moldyn", "montecarlo",
	}
}

// randClass is the shared deterministic LCG used by several benchmarks.
const randClass = `
class Rand {
	int seed;
	Rand(int s) { this.seed = s; }
	int next() {
		this.seed = (this.seed * 1103515245 + 12345) & 2147483647;
		return this.seed;
	}
	int nextN(int n) {
		return this.next() % n;
	}
}
`

// harnessSource mirrors the JGF instrumentation framework every Java
// Grande benchmark runs inside (timers, validation, configuration): it
// gives the benchmarks realistic multi-class structure and gives the
// partitioner cold objects to place on the remote node.
const harnessSource = `
class JGFConfig {
	string name;
	int size;
	string[] params;
	JGFConfig(string name, int size) {
		this.name = name;
		this.size = size;
		this.params = new string[4];
		for (int i = 0; i < 4; i++) {
			this.params[i] = name + "-p" + i;
		}
	}
	string describe() {
		return this.name + "[" + this.size + "]";
	}
}
class JGFTimer {
	long[] marks;
	long[] totals;
	int sections;
	JGFTimer() {
		this.marks = new long[8];
		this.totals = new long[8];
	}
	void start(int s) {
		this.marks[s] = this.marks[s] + 1;
		if (s + 1 > this.sections) { this.sections = s + 1; }
	}
	void stop(int s) {
		this.totals[s] = this.totals[s] + 1;
	}
}
class JGFValidator {
	int checks;
	int passed;
	void check(boolean ok) {
		this.checks++;
		if (ok) { this.passed++; }
	}
	boolean allPassed() {
		return this.checks > 0 && this.checks == this.passed;
	}
}
class JGFHarness {
	JGFConfig config;
	JGFTimer timer;
	JGFValidator validator;
	JGFHarness(string name, int size) {
		this.config = new JGFConfig(name, size);
		this.timer = new JGFTimer();
		this.validator = new JGFValidator();
	}
	void section(int s) { this.timer.start(s); }
	void endSection(int s) { this.timer.stop(s); }
	void check(boolean ok) { this.validator.check(ok); }
	void report() {
		string status = "failed";
		if (this.validator.allPassed()) { status = "validated"; }
		System.println(this.config.describe() + " " + status +
			" checks=" + this.validator.checks + " sections=" + this.timer.sections);
	}
}
`

func init() {
	register(Program{
		Name:         "create",
		Description:  "JGFCreateBench: object and array creation rates (section 1)",
		ExpectOutput: "create: objects=20000 arrays=10000 sum=249985000\ncreate[20000] validated checks=1 sections=2\n",
		Source: harnessSource + `
class Node {
	int value;
	Node next;
	Node(int v) { this.value = v; }
}
class CreateBench {
	int objs;
	int arrs;
	int sum;
	void objects(int n) {
		Node head = null;
		for (int i = 0; i < n; i++) {
			Node nd = new Node(i);
			nd.next = head;
			head = nd;
			this.objs++;
			this.sum += nd.value;
		}
	}
	void arrays(int n, int size) {
		for (int i = 0; i < n; i++) {
			int[] a = new int[size];
			a[0] = i;
			this.arrs++;
			this.sum += a[0];
		}
	}
	static void main() {
		JGFHarness h = new JGFHarness("create", 20000);
		CreateBench b = new CreateBench();
		h.section(0);
		b.objects(20000);
		h.endSection(0);
		h.section(1);
		b.arrays(10000, 32);
		h.endSection(1);
		h.check(b.objs == 20000 && b.arrs == 10000);
		System.println("create: objects=" + b.objs + " arrays=" + b.arrs + " sum=" + b.sum);
		h.report();
	}
}`,
	})

	for _, v := range []struct {
		name, elem, alloc string
	}{
		{"create_int", "int", "int[] a = new int[64]; a[0] = i; chk += a.length;"},
		{"create_long", "long", "long[] a = new long[64]; a[0] = i; chk += a.length;"},
		{"create_float", "float", "float[] a = new float[64]; a[0] = 1.0; chk += a.length;"},
		{"create_object", "Object", "Object[] a = new Object[64]; chk += a.length;"},
		{"create_custom", "Custom", "Custom c = new Custom(i); chk += c.v;"},
	} {
		register(Program{
			Name:        v.name,
			Description: "CreateBench (" + v.elem + "[]): allocation of " + v.elem + " cells (Table 3 variant)",
			Source: `
class Custom {
	int v;
	Custom(int v) { this.v = v; }
}
class CreateBench {
	static void main() {
		int chk = 0;
		for (int i = 0; i < 800; i++) {
			` + v.alloc + `
		}
		System.println("` + v.name + `: chk=" + chk);
	}
}`,
		})
	}

	register(Program{
		Name:        "method",
		Description: "JGFMethodBench: instance and static method invocation rates (section 1)",

		Source: harnessSource + `
class Methods {
	int acc;
	int instAdd(int x) { return x + 1; }
	int instAcc(int x) { this.acc += x; return this.acc; }
	static int statAdd(int x) { return x + 2; }
}
class MethodBench {
	static void main() {
		JGFHarness h = new JGFHarness("method", 40000);
		Methods m = new Methods();
		int sum = 0;
		h.section(0);
		for (int i = 0; i < 40000; i++) {
			sum += m.instAdd(i % 10);
			sum += Methods.statAdd(i % 10);
			sum += m.instAcc(1) % 100;
			sum += sameClass(i) % 100;
		}
		h.endSection(0);
		h.check(m.acc == 40000);
		System.println("method: sum=" + sum);
		h.report();
	}
	static int sameClass(int x) { return x * 3; }
}`,
	})

	register(Program{
		Name:        "crypt",
		Description: "JGFCryptBench: symmetric block cipher over an int array (section 2)",
		Source: randClass + harnessSource + `
class Crypt {
	int[] key;
	Crypt(int seed) {
		this.key = new int[16];
		Rand r = new Rand(seed);
		for (int i = 0; i < 16; i++) {
			this.key[i] = r.next() & 255;
		}
	}
	void encrypt(int[] data) {
		for (int round = 0; round < 4; round++) {
			for (int i = 0; i < data.length; i++) {
				data[i] = (data[i] + this.key[(i + round) % 16]) & 255;
				data[i] = ((data[i] << 3) | (data[i] >> 5)) & 255;
				data[i] = data[i] ^ this.key[(i * 7 + round) % 16];
			}
		}
	}
	void decrypt(int[] data) {
		for (int round = 3; round >= 0; round--) {
			for (int i = 0; i < data.length; i++) {
				data[i] = data[i] ^ this.key[(i * 7 + round) % 16];
				data[i] = ((data[i] >> 3) | (data[i] << 5)) & 255;
				data[i] = (data[i] - this.key[(i + round) % 16]) & 255;
			}
		}
	}
	static void main() {
		int n = 8192;
		JGFHarness h = new JGFHarness("crypt", n);
		int[] data = new int[n];
		Rand r = new Rand(7);
		for (int i = 0; i < n; i++) {
			data[i] = r.next() & 255;
		}
		int before = 0;
		for (int i = 0; i < n; i++) { before += data[i] * (i + 1); }
		Crypt c = new Crypt(99);
		h.section(0);
		c.encrypt(data);
		h.endSection(0);
		int mid = 0;
		for (int i = 0; i < n; i++) { mid += data[i] * (i + 1); }
		h.section(1);
		c.decrypt(data);
		h.endSection(1);
		int after = 0;
		for (int i = 0; i < n; i++) { after += data[i] * (i + 1); }
		string ok = "FAIL";
		if (before == after && mid != before) { ok = "OK"; }
		h.check(before == after);
		h.check(mid != before);
		System.println("crypt: " + ok + " chk=" + mid);
		h.report();
	}
}`,
	})

	register(Program{
		Name:        "heapsort",
		Description: "JGFHeapSortBench: heap sort over a pseudo-random int array (section 2)",
		Source: randClass + harnessSource + `
class HeapSort {
	void sift(int[] a, int start, int end) {
		int root = start;
		boolean going = true;
		while (going) {
			int child = root * 2 + 1;
			if (child > end) {
				going = false;
			} else {
				if (child + 1 <= end && a[child] < a[child + 1]) {
					child = child + 1;
				}
				if (a[root] < a[child]) {
					int t = a[root]; a[root] = a[child]; a[child] = t;
					root = child;
				} else {
					going = false;
				}
			}
		}
	}
	void sort(int[] a) {
		int n = a.length;
		for (int start = n / 2 - 1; start >= 0; start--) {
			this.sift(a, start, n - 1);
		}
		for (int end = n - 1; end > 0; end--) {
			int t = a[0]; a[0] = a[end]; a[end] = t;
			this.sift(a, 0, end - 1);
		}
	}
	static void main() {
		int n = 20000;
		JGFHarness h = new JGFHarness("heapsort", n);
		int[] a = new int[n];
		Rand r = new Rand(12345);
		for (int i = 0; i < n; i++) { a[i] = r.nextN(100000); }
		HeapSort hs = new HeapSort();
		h.section(0);
		hs.sort(a);
		h.endSection(0);
		boolean sorted = true;
		for (int i = 1; i < n; i++) {
			if (a[i - 1] > a[i]) { sorted = false; }
		}
		string ok = "FAIL";
		if (sorted) { ok = "OK"; }
		h.check(sorted);
		System.println("heapsort: " + ok + " head=" + a[0] + " mid=" + a[n / 2] + " tail=" + a[n - 1]);
		h.report();
	}
}`,
	})

	register(Program{
		Name:        "moldyn",
		Description: "JGFMolDynBench: N-body molecular dynamics with a Lennard-Jones-style force (section 3)",
		Source: harnessSource + `
class Particles {
	float[] x;
	float[] y;
	float[] vx;
	float[] vy;
	float[] fx;
	float[] fy;
	int n;
	Particles(int n) {
		this.n = n;
		this.x = new float[n];
		this.y = new float[n];
		this.vx = new float[n];
		this.vy = new float[n];
		this.fx = new float[n];
		this.fy = new float[n];
		for (int i = 0; i < n; i++) {
			this.x[i] = (float)(i % 6) * 1.2;
			this.y[i] = (float)(i / 6) * 1.2;
			this.vx[i] = 0.0;
			this.vy[i] = 0.0;
		}
	}
	void forces() {
		for (int i = 0; i < this.n; i++) {
			this.fx[i] = 0.0;
			this.fy[i] = 0.0;
		}
		for (int i = 0; i < this.n; i++) {
			for (int j = i + 1; j < this.n; j++) {
				float dx = this.x[i] - this.x[j];
				float dy = this.y[i] - this.y[j];
				float r2 = dx * dx + dy * dy + 0.01;
				float inv2 = 1.0 / r2;
				float inv6 = inv2 * inv2 * inv2;
				float f = 24.0 * inv6 * (2.0 * inv6 - 1.0) * inv2;
				this.fx[i] += f * dx;
				this.fy[i] += f * dy;
				this.fx[j] -= f * dx;
				this.fy[j] -= f * dy;
			}
		}
	}
	void step(float dt) {
		this.forces();
		for (int i = 0; i < this.n; i++) {
			this.vx[i] += this.fx[i] * dt;
			this.vy[i] += this.fy[i] * dt;
			this.x[i] += this.vx[i] * dt;
			this.y[i] += this.vy[i] * dt;
		}
	}
	float kinetic() {
		float e = 0.0;
		for (int i = 0; i < this.n; i++) {
			e += this.vx[i] * this.vx[i] + this.vy[i] * this.vy[i];
		}
		return 0.5 * e;
	}
}
class MolDyn {
	static void main() {
		JGFHarness h = new JGFHarness("moldyn", 48);
		Particles p = new Particles(48);
		h.section(0);
		for (int s = 0; s < 25; s++) {
			p.step(0.002);
		}
		h.endSection(0);
		float e = p.kinetic();
		int scaled = (int)(e * 1000000.0);
		h.check(scaled > 0);
		System.println("moldyn: ke6=" + scaled);
		h.report();
	}
}`,
	})

	register(Program{
		Name:        "search",
		Description: "JGFSearchBench: alpha-beta game-tree search (section 3)",
		Source: harnessSource + `
class Board {
	int[] cells;
	int nodes;
	Board() { this.cells = new int[9]; }
	int winner() {
		for (int i = 0; i < 3; i++) {
			if (this.cells[3 * i] != 0 && this.cells[3 * i] == this.cells[3 * i + 1] && this.cells[3 * i + 1] == this.cells[3 * i + 2]) {
				return this.cells[3 * i];
			}
			if (this.cells[i] != 0 && this.cells[i] == this.cells[i + 3] && this.cells[i + 3] == this.cells[i + 6]) {
				return this.cells[i];
			}
		}
		if (this.cells[0] != 0 && this.cells[0] == this.cells[4] && this.cells[4] == this.cells[8]) { return this.cells[0]; }
		if (this.cells[2] != 0 && this.cells[2] == this.cells[4] && this.cells[4] == this.cells[6]) { return this.cells[2]; }
		return 0;
	}
	int alphabeta(int player, int alpha, int beta) {
		this.nodes++;
		int w = this.winner();
		if (w != 0) {
			if (w == player) { return 1; }
			return -1;
		}
		boolean full = true;
		for (int i = 0; i < 9; i++) {
			if (this.cells[i] == 0) { full = false; }
		}
		if (full) { return 0; }
		int best = -2;
		for (int i = 0; i < 9; i++) {
			if (this.cells[i] == 0 && best < beta) {
				this.cells[i] = player;
				int v = -this.alphabeta(-player, -beta, -alpha);
				this.cells[i] = 0;
				if (v > best) { best = v; }
				if (best > alpha) { alpha = best; }
			}
		}
		return best;
	}
	static void main() {
		JGFHarness h = new JGFHarness("search", 9);
		Board b = new Board();
		h.section(0);
		int v = b.alphabeta(1, -2, 2);
		h.endSection(0);
		h.check(v == 0);
		System.println("search: value=" + v + " nodes=" + b.nodes);
		h.report();
	}
}`,
	})

	register(Program{
		Name:        "compress",
		Description: "SPEC JVM98 201_compress: LZW compression over synthetic text",
		Source: randClass + harnessSource + `
class LZW {
	int[] hashKey;
	int[] hashVal;
	int size;
	int next;
	LZW() {
		this.size = 4096;
		this.hashKey = new int[this.size];
		this.hashVal = new int[this.size];
		for (int i = 0; i < this.size; i++) { this.hashKey[i] = -1; }
		this.next = 256;
	}
	int find(int code, int ch) {
		int key = code * 256 + ch;
		int h = (key * 2654435761) & 4095;
		boolean searching = true;
		int result = -1;
		while (searching) {
			if (this.hashKey[h] == -1) {
				searching = false;
			} else {
				if (this.hashKey[h] == key) {
					result = this.hashVal[h];
					searching = false;
				} else {
					h = (h + 1) & 4095;
				}
			}
		}
		return result;
	}
	void insert(int code, int ch) {
		int key = code * 256 + ch;
		int h = (key * 2654435761) & 4095;
		while (this.hashKey[h] != -1) {
			h = (h + 1) & 4095;
		}
		this.hashKey[h] = key;
		this.hashVal[h] = this.next;
		this.next++;
	}
	int compress(int[] input, int[] output) {
		int outLen = 0;
		int code = input[0];
		for (int i = 1; i < input.length; i++) {
			int ch = input[i];
			int found = this.find(code, ch);
			if (found >= 0) {
				code = found;
			} else {
				output[outLen] = code;
				outLen++;
				if (this.next < 4000) {
					this.insert(code, ch);
				}
				code = ch;
			}
		}
		output[outLen] = code;
		outLen++;
		return outLen;
	}
	static void main() {
		int n = 40000;
		JGFHarness h = new JGFHarness("compress", n);
		int[] input = new int[n];
		Rand r = new Rand(55);
		for (int i = 0; i < n; i++) {
			input[i] = 97 + r.nextN(8);
		}
		int[] output = new int[n];
		LZW lzw = new LZW();
		h.section(0);
		int outLen = lzw.compress(input, output);
		h.endSection(0);
		int chk = 0;
		for (int i = 0; i < outLen; i++) { chk = (chk * 31 + output[i]) & 1048575; }
		string ok = "FAIL";
		if (outLen < n) { ok = "OK"; }
		h.check(outLen < n);
		System.println("compress: " + ok + " in=" + n + " out=" + outLen + " dict=" + (lzw.next - 256) + " chk=" + chk);
		h.report();
	}
}`,
	})

	register(Program{
		Name:        "db",
		Description: "SPEC JVM98 209_db: in-memory database of records with lookups, updates and sorting",
		Source: randClass + harnessSource + `
class Record {
	string name;
	int balance;
	Record(string name, int balance) { this.name = name; this.balance = balance; }
}
class Database {
	Vector records;
	Database() { this.records = new Vector(); }
	void add(Record r) { this.records.add(r); }
	Record findByName(string name) {
		for (int i = 0; i < this.records.size(); i++) {
			Record r = (Record) this.records.get(i);
			if (Str.equals(r.name, name)) { return r; }
		}
		return null;
	}
	void sortByName() {
		int n = this.records.size();
		for (int i = 1; i < n; i++) {
			Record key = (Record) this.records.get(i);
			int j = i - 1;
			boolean moving = true;
			while (moving) {
				if (j < 0) {
					moving = false;
				} else {
					Record rj = (Record) this.records.get(j);
					if (Str.compare(rj.name, key.name) > 0) {
						this.records.set(j + 1, rj);
						j--;
					} else {
						moving = false;
					}
				}
			}
			this.records.set(j + 1, key);
		}
	}
	int total() {
		int t = 0;
		for (int i = 0; i < this.records.size(); i++) {
			Record r = (Record) this.records.get(i);
			t += r.balance;
		}
		return t;
	}
	static void main() {
		JGFHarness h = new JGFHarness("db", 500);
		Database db = new Database();
		Rand r = new Rand(31);
		h.section(0);
		for (int i = 0; i < 500; i++) {
			db.add(new Record("cust" + r.nextN(100000), r.nextN(10000)));
		}
		h.endSection(0);
		h.section(1);
		db.sortByName();
		h.endSection(1);
		boolean sorted = true;
		for (int i = 1; i < db.records.size(); i++) {
			Record a = (Record) db.records.get(i - 1);
			Record b = (Record) db.records.get(i);
			if (Str.compare(a.name, b.name) > 0) { sorted = false; }
		}
		Record first = (Record) db.records.get(0);
		first.balance += 1;
		Record found = db.findByName(first.name);
		string ok = "FAIL";
		if (sorted && found != null && found.balance == first.balance) { ok = "OK"; }
		h.check(sorted);
		h.check(found != null);
		System.println("db: " + ok + " n=" + db.records.size() + " total=" + db.total() + " first=" + first.name);
		h.report();
	}
}`,
	})

	register(Program{
		Name:        "fft",
		Description: "FFTA: iterative radix-2 FFT with inverse-transform residual check (Table 3)",
		Source: `
class FFT {
	int n;
	float[] re;
	float[] im;
	FFT(int n) {
		this.n = n;
		this.re = new float[n];
		this.im = new float[n];
	}
	void transform(int sign) {
		int n = this.n;
		int j = 0;
		for (int i = 0; i < n - 1; i++) {
			if (i < j) {
				float tr = this.re[i]; this.re[i] = this.re[j]; this.re[j] = tr;
				float ti = this.im[i]; this.im[i] = this.im[j]; this.im[j] = ti;
			}
			int m = n / 2;
			while (m >= 1 && j >= m) {
				j = j - m;
				m = m / 2;
			}
			j = j + m;
		}
		int mmax = 1;
		while (mmax < n) {
			int istep = mmax * 2;
			float theta = (float)sign * 3.141592653589793 / (float)mmax;
			for (int m = 0; m < mmax; m++) {
				float w = (float)m * theta;
				float wr = Math.cos(w);
				float wi = Math.sin(w);
				for (int i = m; i < n; i += istep) {
					int k = i + mmax;
					float tr = wr * this.re[k] - wi * this.im[k];
					float ti = wr * this.im[k] + wi * this.re[k];
					this.re[k] = this.re[i] - tr;
					this.im[k] = this.im[i] - ti;
					this.re[i] += tr;
					this.im[i] += ti;
				}
			}
			mmax = istep;
		}
	}
	static void main() {
		int n = 128;
		FFT f = new FFT(n);
		for (int i = 0; i < n; i++) {
			f.re[i] = Math.sin((float)i * 0.3);
			f.im[i] = 0.0;
		}
		float[] orig = new float[n];
		for (int i = 0; i < n; i++) { orig[i] = f.re[i]; }
		f.transform(1);
		f.transform(-1);
		float maxErr = 0.0;
		for (int i = 0; i < n; i++) {
			float err = Math.abs(f.re[i] / (float)n - orig[i]);
			if (err > maxErr) { maxErr = err; }
		}
		string ok = "FAIL";
		if (maxErr < 0.0001) { ok = "OK"; }
		System.println("fft: " + ok + " n=" + n);
	}
}`,
	})

	register(Program{
		Name:        "montecarlo",
		Description: "MonteCarloA: Monte Carlo integration with an LCG stream (Table 3)",
		Source: randClass + `
class MonteCarlo {
	static void main() {
		Rand r = new Rand(2025);
		int inside = 0;
		int n = 20000;
		for (int i = 0; i < n; i++) {
			float x = (float)r.nextN(10000) / 10000.0;
			float y = (float)r.nextN(10000) / 10000.0;
			if (x * x + y * y <= 1.0) { inside++; }
		}
		int pi4 = (inside * 10000) / n;
		System.println("montecarlo: inside=" + inside + " pi4=" + pi4);
	}
}`,
	})
}

// CompileKernelNames returns the tiered-execution benchmark kernels:
// compute-bound loops with no native calls on the hot path, so the
// compiled tier's speedup is measured on pure interpretation overhead
// (BenchmarkCompiledKernels).
func CompileKernelNames() []string {
	return []string{"kernel_int", "kernel_float", "kernel_array", "kernel_rec"}
}

func init() {
	register(Program{
		Name:         "kernel_int",
		Description:  "tiered-execution kernel: integer arithmetic/logic loop, no natives on the hot path",
		ExpectOutput: "kernel_int: 9201402379481030590\n",
		Source: `
class Main {
	static int mix(int s, int i) {
		s = s + i * i - (i / 3) + (i % 7);
		s = s ^ (i << 2);
		s = s + (s >> 3);
		return s;
	}
	static void main() {
		int s = 0;
		for (int i = 0; i < 200000; i++) {
			s = mix(s, i);
		}
		System.println("kernel_int: " + s);
	}
}`,
	})

	register(Program{
		Name:         "kernel_float",
		Description:  "tiered-execution kernel: floating-point recurrence loop, no natives on the hot path",
		ExpectOutput: "kernel_float: 0\n",
		Source: `
class Main {
	static void main() {
		float s = 0.0;
		float x = 1.5;
		for (int i = 0; i < 200000; i++) {
			s = s + x * 1.0001 - s / 3.5;
			x = 0.0 - x;
		}
		int positive = 0;
		if (s > 0.0) { positive = 1; }
		System.println("kernel_float: " + positive);
	}
}`,
	})

	register(Program{
		Name:         "kernel_array",
		Description:  "tiered-execution kernel: in-place array heapsort-style sweeps, no natives on the hot path",
		ExpectOutput: "kernel_array: 523776\n",
		Source: `
class Main {
	static void main() {
		int n = 1024;
		int[] a = new int[n];
		for (int i = 0; i < n; i++) {
			a[i] = (i * 1103515245 + 12345) & 1023;
		}
		for (int pass = 0; pass < 200; pass++) {
			for (int i = 1; i < n; i++) {
				int v = a[i];
				int j = i - 1;
				boolean moving = true;
				while (moving) {
					if (j < 0) { moving = false; }
					else if (a[j] > v) { a[j + 1] = a[j]; j--; }
					else { moving = false; }
				}
				a[j + 1] = v;
			}
			a[pass % n] = pass & 1023;
		}
		int s = 0;
		for (int i = 0; i < n; i++) { s += a[i]; }
		System.println("kernel_array: " + s);
	}
}`,
	})

	register(Program{
		Name:         "kernel_rec",
		Description:  "tiered-execution kernel: recursive fibonacci, call-heavy with no natives",
		ExpectOutput: "kernel_rec: 196418\n",
		Source: `
class Main {
	static int fib(int n) {
		if (n < 2) { return n; }
		return fib(n - 1) + fib(n - 2);
	}
	static void main() {
		System.println("kernel_rec: " + fib(27));
	}
}`,
	})
}
