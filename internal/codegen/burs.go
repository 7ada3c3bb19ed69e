package codegen

import (
	"fmt"
	"math"
	"strings"
)

// nt is a BURS nonterminal.
type nt int

// Nonterminals: a full statement, a value in a machine register, and an
// immediate operand usable directly in an instruction.
const (
	ntStmt nt = iota
	ntReg
	ntImm
	ntCount
)

// rule is one BURS rewrite rule. Either Op is set (pattern rule: the
// node's label must equal Op and its children must reduce to Kids), or
// From is set (chain rule: LHS ← From at Cost).
type rule struct {
	lhs  nt
	op   string
	kids []nt
	from nt
	cost int
	// emit generates code for the reduction. kids holds the operand
	// strings produced by child reductions (registers, immediates).
	// It returns the operand string representing this node's value
	// (empty for statements).
	emit func(e *emitter, n *Node, kids []string) string
	// chainEmit generates code for a chain rule given the source
	// operand string.
	chainEmit func(e *emitter, n *Node, src string) string
}

// ruleSet is a target machine description.
type ruleSet struct {
	name  string
	rules []*rule
	// regName maps virtual register numbers to machine registers.
	regName func(n int) string
	// retReg is the return-value register.
	retReg string
	// labelFmt renders a block label.
	labelFmt func(block int) string
	// commentCol renders the trailing quad-ID comment.
	comment func(id int, sub string) string
}

// label runs the bottom-up dynamic-programming pass, computing the
// minimum-cost rule for every (node, nonterminal) pair.
func (rs *ruleSet) label(n *Node) {
	for _, k := range n.Kids {
		rs.label(k)
	}
	n.costs = map[nt]int{}
	n.rules = map[nt]*rule{}
	inf := math.MaxInt / 4

	costOf := func(x *Node, t nt) int {
		if c, ok := x.costs[t]; ok {
			return c
		}
		return inf
	}
	// Pattern rules.
	for _, r := range rs.rules {
		if r.op == "" || r.op != n.Label || len(r.kids) != len(n.Kids) {
			continue
		}
		total := r.cost
		ok := true
		for i, kt := range r.kids {
			c := costOf(n.Kids[i], kt)
			if c >= inf {
				ok = false
				break
			}
			total += c
		}
		if ok && total < costOf(n, r.lhs) {
			n.costs[r.lhs] = total
			n.rules[r.lhs] = r
		}
	}
	// Chain rules to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, r := range rs.rules {
			if r.op != "" {
				continue
			}
			src := costOf(n, r.from)
			if src >= inf {
				continue
			}
			if src+r.cost < costOf(n, r.lhs) {
				n.costs[r.lhs] = src + r.cost
				n.rules[r.lhs] = r
				changed = true
			}
		}
	}
}

// reduce runs the top-down emission pass for goal t.
func (rs *ruleSet) reduce(e *emitter, n *Node, t nt) (string, error) {
	r := n.rules[t]
	if r == nil {
		return "", fmt.Errorf("codegen: no %s rule covers %s as nt(%d)", rs.name, n.Label, t)
	}
	if r.op == "" { // chain
		src, err := rs.reduce(e, n, r.from)
		if err != nil {
			return "", err
		}
		if r.chainEmit != nil {
			return r.chainEmit(e, n, src), nil
		}
		return src, nil
	}
	kidVals := make([]string, len(n.Kids))
	for i, kt := range r.kids {
		v, err := rs.reduce(e, n.Kids[i], kt)
		if err != nil {
			return "", err
		}
		kidVals[i] = v
	}
	if r.emit == nil {
		if len(kidVals) > 0 {
			return kidVals[0], nil
		}
		return "", nil
	}
	return r.emit(e, n, kidVals), nil
}

// emitter accumulates assembly lines and allocates scratch registers.
type emitter struct {
	rs      *ruleSet
	lines   []string
	quadID  int
	subSeq  int
	scratch int
}

func (e *emitter) emit(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	sub := ""
	if e.subSeq > 0 {
		sub = string(rune('a' + e.subSeq - 1))
	}
	if e.quadID > 0 {
		// Count how many lines this quad has produced to decide
		// whether to suffix "a", "b" like the paper's Figure 7.
		line = fmt.Sprintf("%-24s %s", line, e.rs.comment(e.quadID, sub))
	}
	e.subSeq++
	e.lines = append(e.lines, line)
}

func (e *emitter) emitLabel(block int) {
	e.lines = append(e.lines, e.rs.labelFmt(block))
}

func (e *emitter) temp() string {
	e.scratch++
	return e.rs.regName(100 + e.scratch)
}

// Generate emits assembly for one function on the given rule set.
func generate(rs *ruleSet, blocks []BlockTrees) (string, error) {
	e := &emitter{rs: rs}
	for _, bt := range blocks {
		if len(bt.Trees) == 0 {
			continue
		}
		e.emitLabel(bt.Block.ID)
		for i, tree := range bt.Trees {
			rs.label(tree)
			e.quadID = bt.QuadIDs[i]
			e.subSeq = 0
			if _, err := rs.reduce(e, tree, ntStmt); err != nil {
				return "", err
			}
		}
	}
	return strings.Join(e.lines, "\n") + "\n", nil
}
