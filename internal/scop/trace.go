package scop

import (
	"fmt"

	"haystack/internal/ints"
)

// LayoutKind selects how arrays are laid out in the simulated address space.
type LayoutKind int

const (
	// LayoutNatural packs rows back to back (ordinary row-major C layout).
	LayoutNatural LayoutKind = iota
	// LayoutPadded pads every innermost row to a multiple of the cache line
	// size, matching the alignment assumption of the analytical model.
	LayoutPadded
)

// Layout assigns base addresses and strides to the arrays of a program.
type Layout struct {
	Kind     LayoutKind
	LineSize int64
	bases    map[string]int64
	strides  map[string][]int64 // per array: stride (in bytes) of every dimension
}

// NewLayout computes a layout for the program. Arrays are placed back to
// back, each aligned to the cache line size.
func NewLayout(p *Program, kind LayoutKind, lineSize int64) *Layout {
	l := &Layout{Kind: kind, LineSize: lineSize, bases: map[string]int64{}, strides: map[string][]int64{}}
	next := int64(0)
	align := func(v, a int64) int64 { return ints.CeilDiv(v, a) * a }
	for _, a := range p.Arrays {
		if a.IsParametric() {
			// Parametric arrays have no concrete footprint; Compile rejects
			// the program before the layout is consulted.
			continue
		}
		strides := make([]int64, len(a.Dims))
		rowBytes := a.Elem * a.Dims[len(a.Dims)-1]
		if kind == LayoutPadded {
			rowBytes = align(rowBytes, lineSize)
		}
		// Innermost dimension has element stride; outer dimensions use the
		// (possibly padded) row size.
		strides[len(a.Dims)-1] = a.Elem
		size := rowBytes
		for d := len(a.Dims) - 2; d >= 0; d-- {
			strides[d] = size
			size *= a.Dims[d]
		}
		if len(a.Dims) == 1 {
			size = rowBytes
		}
		l.bases[a.Name] = align(next, lineSize)
		l.strides[a.Name] = strides
		next = l.bases[a.Name] + size
	}
	return l
}

// Base returns the base address of an array.
func (l *Layout) Base(a *Array) int64 { return l.bases[a.Name] }

// Strides returns the byte stride of every dimension of an array.
func (l *Layout) Strides(a *Array) []int64 { return l.strides[a.Name] }

// MemRef is one dynamic memory access of the program trace.
type MemRef struct {
	Addr  int64
	Size  int64
	Write bool
}

// compiledAccess is an access whose address is a precomputed affine function
// of the loop variable slots.
type compiledAccess struct {
	constant int64
	coeffs   []int64 // one per loop variable slot
	size     int64
	write    bool
}

type compiledNode interface{ isCompiled() }

type compiledBound struct {
	constant int64
	coeffs   []int64
}

type compiledLoop struct {
	slot   int
	lowers []compiledBound // effective lower bound: maximum
	uppers []compiledBound // effective upper bound (exclusive): minimum
	body   []compiledNode
}

func (*compiledLoop) isCompiled() {}

type compiledStmt struct {
	accesses []compiledAccess
}

func (*compiledStmt) isCompiled() {}

// CompiledProgram is a program lowered to a fast trace generator.
type CompiledProgram struct {
	prog  *Program
	slots map[string]int
	root  []compiledNode
}

// Compile lowers the program and a layout into a fast trace generator. Every
// access address is an affine function of the loop variables, so the walk
// performs only integer multiply-adds.
func Compile(p *Program, layout *Layout) (*CompiledProgram, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.IsParametric() {
		return nil, fmt.Errorf("scop: cannot replay parametric program %s (instantiate it first)", p.Name)
	}
	cp := &CompiledProgram{prog: p, slots: map[string]int{}}
	// Assign slots to loop variables in order of first appearance.
	var assign func(nodes []Node)
	assign = func(nodes []Node) {
		for _, n := range nodes {
			if l, ok := n.(*Loop); ok {
				if _, seen := cp.slots[l.Var.Name]; !seen {
					cp.slots[l.Var.Name] = len(cp.slots)
				}
				assign(l.Body)
			}
		}
	}
	assign(p.Root)

	exprTo := func(e Expr) (int64, []int64) {
		coeffs := make([]int64, len(cp.slots))
		for name, c := range e.Coeffs {
			if c == 0 {
				continue
			}
			slot, ok := cp.slots[name]
			if !ok {
				panic(fmt.Sprintf("scop: unbound variable %s", name))
			}
			coeffs[slot] = c
		}
		return e.Const, coeffs
	}

	var compile func(nodes []Node) []compiledNode
	compile = func(nodes []Node) []compiledNode {
		var out []compiledNode
		for _, n := range nodes {
			switch n := n.(type) {
			case *Loop:
				cl := &compiledLoop{slot: cp.slots[n.Var.Name], body: compile(n.Body)}
				for _, le := range append([]Expr{n.Lower}, n.ExtraLower...) {
					lc, lco := exprTo(le)
					cl.lowers = append(cl.lowers, compiledBound{lc, lco})
				}
				for _, ue := range append([]Expr{n.Upper}, n.ExtraUpper...) {
					uc, uco := exprTo(ue)
					cl.uppers = append(cl.uppers, compiledBound{uc, uco})
				}
				out = append(out, cl)
			case *Statement:
				cs := &compiledStmt{}
				for _, acc := range n.Accesses {
					strides := layout.Strides(acc.Array)
					constant := layout.Base(acc.Array)
					coeffs := make([]int64, len(cp.slots))
					for d, idx := range acc.Index {
						c, co := exprTo(idx)
						constant += c * strides[d]
						for s := range co {
							coeffs[s] += co[s] * strides[d]
						}
					}
					cs.accesses = append(cs.accesses, compiledAccess{
						constant: constant, coeffs: coeffs, size: acc.Array.Elem, write: acc.Write,
					})
				}
				out = append(out, cs)
			}
		}
		return out
	}
	cp.root = compile(p.Root)
	return cp, nil
}

// ForEachAccess replays the memory trace of the program in execution order,
// calling fn for every access. fn returning false stops the walk early.
func (cp *CompiledProgram) ForEachAccess(fn func(ref MemRef) bool) {
	env := make([]int64, len(cp.slots))
	cp.walk(cp.root, env, fn)
}

func (cp *CompiledProgram) walk(nodes []compiledNode, env []int64, fn func(ref MemRef) bool) bool {
	for _, n := range nodes {
		switch n := n.(type) {
		case *compiledLoop:
			eval := func(b compiledBound) int64 {
				v := b.constant
				for s, c := range b.coeffs {
					if c != 0 {
						v += c * env[s]
					}
				}
				return v
			}
			lo := eval(n.lowers[0])
			for _, b := range n.lowers[1:] {
				if v := eval(b); v > lo {
					lo = v
				}
			}
			hi := eval(n.uppers[0])
			for _, b := range n.uppers[1:] {
				if v := eval(b); v < hi {
					hi = v
				}
			}
			for v := lo; v < hi; v++ {
				env[n.slot] = v
				if !cp.walk(n.body, env, fn) {
					return false
				}
			}
		case *compiledStmt:
			for i := range n.accesses {
				a := &n.accesses[i]
				addr := a.constant
				for s, c := range a.coeffs {
					if c != 0 {
						addr += c * env[s]
					}
				}
				if !fn(MemRef{Addr: addr, Size: a.size, Write: a.write}) {
					return false
				}
			}
		}
	}
	return true
}

// CountAccesses walks the program and returns the number of dynamic memory
// accesses (the trace length).
func (cp *CompiledProgram) CountAccesses() int64 {
	var n int64
	cp.ForEachAccess(func(MemRef) bool { n++; return true })
	return n
}

// DynamicStatementInstances walks the program and returns the number of
// dynamic statement instances per statement name (useful for tests).
func DynamicStatementInstances(p *Program) map[string]int64 {
	out := map[string]int64{}
	var walk func(nodes []Node, env map[string]int64)
	walk = func(nodes []Node, env map[string]int64) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *Loop:
				lo := n.Lower.Eval(env)
				hi := n.Upper.Eval(env)
				for v := lo; v < hi; v++ {
					env[n.Var.Name] = v
					walk(n.Body, env)
				}
				delete(env, n.Var.Name)
			case *Statement:
				out[n.Name]++
			}
		}
	}
	walk(p.Root, map[string]int64{})
	return out
}
