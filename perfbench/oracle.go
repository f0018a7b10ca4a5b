package main

import (
	"fmt"

	"parabit"
	"parabit/internal/plan"
)

// The oracle is the benchmark's own model of what every operation must
// return: plain byte loops over the inputs the benchmark generated,
// sharing no code with the program's latch, plan or bitvec packages.

// refOp applies a two-input operation byte by byte. NotFirst and
// NotSecond complement one input and ignore the other.
func refOp(op parabit.Op, a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range out {
		x, y := a[i], b[i]
		var r byte
		switch op {
		case parabit.And:
			r = x & y
		case parabit.Or:
			r = x | y
		case parabit.Xor:
			r = x ^ y
		case parabit.Xnor:
			r = ^(x ^ y)
		case parabit.Nand:
			r = ^(x & y)
		case parabit.Nor:
			r = ^(x | y)
		case parabit.NotFirst:
			r = ^x
		case parabit.NotSecond:
			r = ^y
		default:
			panic(fmt.Sprintf("refOp: op %v", op))
		}
		out[i] = r
	}
	return out
}

// refFold folds an associative operation (And, Or, Xor) left to right.
func refFold(op parabit.Op, pages [][]byte) []byte {
	acc := append([]byte(nil), pages[0]...)
	for _, p := range pages[1:] {
		acc = refOp(op, acc, p)
	}
	return acc
}

// qnode is a query expression as the benchmark generates it. It renders
// to the program's two query front ends (parabit.Query for a device,
// plan.Expr for the cluster) and evaluates itself with refOp.
type qnode struct {
	leaf bool
	lpn  uint64
	// op is And, Or or Xor for n-ary nodes; Xnor, Nand or Nor for binary
	// ones; NotFirst for a one-child complement.
	op   parabit.Op
	kids []*qnode
}

func qleaf(lpn uint64) *qnode                  { return &qnode{leaf: true, lpn: lpn} }
func qop(op parabit.Op, kids ...*qnode) *qnode { return &qnode{op: op, kids: kids} }
func qnot(k *qnode) *qnode                     { return &qnode{op: parabit.NotFirst, kids: []*qnode{k}} }
func (n *qnode) eval(page func(uint64) []byte) []byte {
	if n.leaf {
		return page(n.lpn)
	}
	args := make([][]byte, len(n.kids))
	for i, k := range n.kids {
		args[i] = k.eval(page)
	}
	switch n.op {
	case parabit.NotFirst:
		return refOp(parabit.NotFirst, args[0], args[0])
	case parabit.Xnor, parabit.Nand, parabit.Nor:
		return refOp(n.op, args[0], args[1])
	}
	return refFold(n.op, args)
}

func (n *qnode) query() parabit.Query {
	if n.leaf {
		return parabit.QueryLPN(n.lpn)
	}
	qs := make([]parabit.Query, len(n.kids))
	for i, k := range n.kids {
		qs[i] = k.query()
	}
	switch n.op {
	case parabit.And:
		return parabit.QueryAnd(qs...)
	case parabit.Or:
		return parabit.QueryOr(qs...)
	case parabit.Xor:
		return parabit.QueryXor(qs...)
	case parabit.Xnor:
		return parabit.QueryXnor(qs[0], qs[1])
	case parabit.Nand:
		return parabit.QueryNand(qs[0], qs[1])
	case parabit.Nor:
		return parabit.QueryNor(qs[0], qs[1])
	}
	return parabit.QueryNot(qs[0])
}

func (n *qnode) expr() *plan.Expr {
	if n.leaf {
		return plan.Leaf(n.lpn)
	}
	es := make([]*plan.Expr, len(n.kids))
	for i, k := range n.kids {
		es[i] = k.expr()
	}
	switch n.op {
	case parabit.And:
		return plan.And(es...)
	case parabit.Or:
		return plan.Or(es...)
	case parabit.Xor:
		return plan.Xor(es...)
	case parabit.Xnor:
		return plan.Xnor(es[0], es[1])
	case parabit.Nand:
		return plan.Nand(es[0], es[1])
	case parabit.Nor:
		return plan.Nor(es[0], es[1])
	}
	return plan.Not(es[0])
}

// mismatch records one operation whose result disagreed with the oracle.
type mismatch struct {
	index int
	kind  string
	what  string
}

func (m mismatch) String() string { return fmt.Sprintf("op %d (%s): %s", m.index, m.kind, m.what) }
