package experiments

import (
	"fmt"
	"strings"

	"autodist/internal/analysis"
	"autodist/internal/bytecode"
	"autodist/internal/codegen"
	"autodist/internal/compile"
	"autodist/internal/partition"
	"autodist/internal/quad"
	"autodist/internal/rewrite"
)

// BankExampleSource is the paper's running example (§2.1, Figure 2),
// used by Figures 3, 4, 8 and 9.
const BankExampleSource = `
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
		Account a4 = new Account(1, "ABC Market", 1000000, 100000, 20000000);
		Account a5 = new Account(2, "CDE Outlet", 5000000, 300000, 150000000);
		merchants.openAccount(a4);
		merchants.openAccount(a5);
		Account a = merchants.getCustomer(2);
		merchants.withdraw(a.getId(), 900);
		int s = a.getSavings();
		System.println("final savings " + s);
	}
}
`

// Figure5ExampleSource is the paper's Figure 5 class.
const Figure5ExampleSource = `
class Example {
	int ex(int b) {
		b = 4;
		if (b > 2) {
			b++;
		}
		return b;
	}
}
class Main { static void main() { } }
`

// bankAnalysis compiles and analyses the Bank example with a 2-way
// partition, as in Figure 4's annotations.
func bankAnalysis() (*bytecode.Program, *analysis.Result, error) {
	bp, _, err := compile.CompileSource(BankExampleSource)
	if err != nil {
		return nil, nil, err
	}
	res, err := analysis.Analyze(bp)
	if err != nil {
		return nil, nil, err
	}
	if _, err := partition.Partition(res.ODG.Graph, partition.Options{K: 2, Seed: 1}); err != nil {
		return nil, nil, err
	}
	return bp, res, nil
}

// Figure3 returns the Bank example's class relation graph in VCG format.
func Figure3() (string, error) {
	_, res, err := bankAnalysis()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := res.CRG.Graph.VCG(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Figure4 returns the Bank example's object dependence graph (with
// 2-way partition annotations) in VCG format.
func Figure4() (string, error) {
	_, res, err := bankAnalysis()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := res.ODG.Graph.VCG(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Figure5 returns the quad listing of Example.ex.
func Figure5() (string, error) {
	bp, _, err := compile.CompileSource(Figure5ExampleSource)
	if err != nil {
		return "", err
	}
	cf := bp.Class("Example")
	f, err := quad.Translate(cf, cf.Method("ex", "(I)I"))
	if err != nil {
		return "", err
	}
	return f.Format(), nil
}

// Figure6 returns the AST forest of Example.ex.
func Figure6() (string, error) {
	bp, _, err := compile.CompileSource(Figure5ExampleSource)
	if err != nil {
		return "", err
	}
	cf := bp.Class("Example")
	f, err := quad.Translate(cf, cf.Method("ex", "(I)I"))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, bt := range codegen.BuildAST(f) {
		for i, tree := range bt.Trees {
			fmt.Fprintf(&b, "-- BB%d quad %d --\n%s", bt.Block.ID, bt.QuadIDs[i], tree.Format())
		}
	}
	return b.String(), nil
}

// Figure7 returns the x86 and StrongARM assembly for Example.ex.
func Figure7() (string, error) {
	bp, _, err := compile.CompileSource(Figure5ExampleSource)
	if err != nil {
		return "", err
	}
	cf := bp.Class("Example")
	f, err := quad.Translate(cf, cf.Method("ex", "(I)I"))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, target := range codegen.Targets() {
		asm, err := codegen.Generate(f, target)
		if err != nil {
			return "", err
		}
		b.WriteString(asm)
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Figures8And9 returns the before/after bytecode of Bank.main and
// Bank.withdraw under a forced layout that makes Account remote —
// reproducing the method-invocation (Figure 8) and instantiation
// (Figure 9) transformations.
func Figures8And9() (string, error) {
	bp, res, err := bankAnalysis()
	if err != nil {
		return "", err
	}
	// Force all Account instances to node 1 so the transformations
	// appear in node 0's code.
	for _, s := range res.ODG.Sites {
		part := 0
		if s.Allocated == "Account" {
			part = 1
		}
		res.ODG.Graph.Vertex(s.Node).Part = part
	}
	for _, v := range res.ODG.StaticNode {
		res.ODG.Graph.Vertex(v).Part = 0
	}
	plan := rewrite.BuildPlan(res, 2)
	rewritten, err := rewrite.RewriteForNode(bp, plan, 0)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, method := range []string{"main", "withdraw"} {
		orig := bp.Class("Bank").MethodByName(method)
		after := rewritten.Class("Bank").MethodByName(method)
		fmt.Fprintf(&b, "==== Original Bank.%s ====\n%s\n", method,
			bytecode.DisasmMethod(bp.Class("Bank"), orig))
		fmt.Fprintf(&b, "==== Transformed Bank.%s (node 0) ====\n%s\n", method,
			bytecode.DisasmMethod(rewritten.Class("Bank"), after))
	}
	// The access natives take a site id where Figure 8 pushes the access
	// kind and member name; the plan's site table says what each names.
	fmt.Fprintf(&b, "==== Site table ====\n")
	for id, s := range plan.Sites {
		fmt.Fprintf(&b, "%4d: %s.%s %s (kind %d)\n", id, s.Class, s.Name, s.Desc, s.Kind)
	}
	return b.String(), nil
}
