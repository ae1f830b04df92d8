// Package scop represents static control programs (SCoPs): perfectly or
// imperfectly nested affine loop nests with array accesses whose subscripts
// are affine functions of the loop variables. A SCoP is the input of the
// cache model and of the trace-driven simulator.
//
// Programs are written with a small builder DSL:
//
//	p := scop.NewProgram("example")
//	M := p.NewArray("M", scop.ElemFloat64, 4)
//	i := scop.V("i")
//	j := scop.V("j")
//	p.Add(
//		scop.For(i, scop.C(0), scop.C(4),
//			scop.Stmt("S0", scop.Write(M, scop.X(i)))),
//		scop.For(j, scop.C(0), scop.C(4),
//			scop.Stmt("S1", scop.Read(M, scop.C(3).Minus(scop.X(j))))),
//	)
//
// From the program, the package derives the polyhedral description used by
// the model (iteration domain, schedule, access maps) and can also replay
// the exact memory trace for the simulator.
package scop

import (
	"fmt"
	"sort"
	"strings"
)

// Element sizes in bytes for the common PolyBench data types.
const (
	ElemFloat32 int64 = 4
	ElemFloat64 int64 = 8
	ElemInt32   int64 = 4
)

// Array describes a (multi-dimensional) array of fixed element size. Extents
// are either concrete (Dims) or affine expressions over the program
// parameters (DimExprs, for arrays declared with NewArrayP); exactly one of
// the two is set.
type Array struct {
	Name string
	Elem int64   // element size in bytes
	Dims []int64 // concrete extent of every dimension (nil when parametric)
	// DimExprs are parametric extents over the program parameters; non-nil
	// exactly when the array was declared with NewArrayP. Instantiate
	// evaluates them into concrete Dims.
	DimExprs []Expr
}

// Rank returns the number of dimensions of the array.
func (a *Array) Rank() int {
	if a.DimExprs != nil {
		return len(a.DimExprs)
	}
	return len(a.Dims)
}

// IsParametric reports whether the array has symbolic extents.
func (a *Array) IsParametric() bool { return a.DimExprs != nil }

// NumElements returns the total number of elements of the array.
func (a *Array) NumElements() int64 {
	if a.IsParametric() {
		panic(fmt.Sprintf("scop: NumElements of parametric array %s (instantiate the program first)", a.Name))
	}
	n := int64(1)
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// SizeBytes returns the unpadded size of the array in bytes.
func (a *Array) SizeBytes() int64 { return a.NumElements() * a.Elem }

// Var is a loop variable. Variables are identified by name within a program.
type Var struct{ Name string }

// V returns a loop variable with the given name.
func V(name string) Var { return Var{Name: name} }

// Expr is an affine expression over loop variables: Const + sum Coeff[v]*v.
type Expr struct {
	Const  int64
	Coeffs map[string]int64
}

// C returns the constant expression n.
func C(n int64) Expr { return Expr{Const: n} }

// X returns the expression consisting of the loop variable v.
func X(v Var) Expr { return Expr{Coeffs: map[string]int64{v.Name: 1}} }

func (e Expr) clone() Expr {
	out := Expr{Const: e.Const, Coeffs: map[string]int64{}}
	for k, v := range e.Coeffs {
		out.Coeffs[k] = v
	}
	return out
}

// Plus returns e + o.
func (e Expr) Plus(o Expr) Expr {
	out := e.clone()
	out.Const += o.Const
	for k, v := range o.Coeffs {
		out.Coeffs[k] += v
	}
	return out
}

// Minus returns e - o.
func (e Expr) Minus(o Expr) Expr { return e.Plus(o.Scale(-1)) }

// Scale returns f*e.
func (e Expr) Scale(f int64) Expr {
	out := e.clone()
	out.Const *= f
	for k := range out.Coeffs {
		out.Coeffs[k] *= f
	}
	return out
}

// Eval evaluates the expression with the given loop variable values.
func (e Expr) Eval(env map[string]int64) int64 {
	v := e.Const
	for k, c := range e.Coeffs {
		v += c * env[k]
	}
	return v
}

// Bind substitutes the given variable values into the expression, folding
// their contributions into the constant term; variables without a binding
// stay symbolic.
func (e Expr) Bind(vals map[string]int64) Expr {
	out := Expr{Const: e.Const, Coeffs: map[string]int64{}}
	for k, c := range e.Coeffs {
		if v, ok := vals[k]; ok {
			out.Const += c * v
		} else if c != 0 {
			out.Coeffs[k] = c
		}
	}
	return out
}

// IsConstant reports whether the expression has no symbolic part, returning
// its value.
func (e Expr) IsConstant() (int64, bool) {
	for _, c := range e.Coeffs {
		if c != 0 {
			return 0, false
		}
	}
	return e.Const, true
}

// String renders the expression.
func (e Expr) String() string {
	var parts []string
	names := make([]string, 0, len(e.Coeffs))
	for k, c := range e.Coeffs {
		if c != 0 {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		c := e.Coeffs[k]
		switch c {
		case 1:
			parts = append(parts, k)
		case -1:
			parts = append(parts, "-"+k)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, k))
		}
	}
	if e.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", e.Const))
	}
	return strings.Join(parts, "+")
}

// Access is one array reference of a statement.
type Access struct {
	Array *Array
	Index []Expr // one affine subscript per array dimension
	Write bool
}

// Read builds a read access.
func Read(a *Array, index ...Expr) Access { return Access{Array: a, Index: index} }

// Write builds a write access.
func Write(a *Array, index ...Expr) Access { return Access{Array: a, Index: index, Write: true} }

// Node is a loop or a statement in the program tree.
type Node interface{ isNode() }

// Loop is a for loop over [Lower, Upper) with unit stride. Additional lower
// bounds (combined with max) and upper bounds (combined with min) support
// tiled loop nests, whose point loops are bounded both by the tile and by
// the original loop extent.
type Loop struct {
	Var   Var
	Lower Expr
	Upper Expr // exclusive
	// ExtraLower are additional inclusive lower bounds (the effective lower
	// bound is the maximum of all lower bounds).
	ExtraLower []Expr
	// ExtraUpper are additional exclusive upper bounds (the effective upper
	// bound is the minimum of all upper bounds).
	ExtraUpper []Expr
	Body       []Node
}

func (*Loop) isNode() {}

// For builds a loop node.
func For(v Var, lower, upper Expr, body ...Node) *Loop {
	return &Loop{Var: v, Lower: lower, Upper: upper, Body: body}
}

// ForBounded builds a loop node with several lower and upper bounds: the
// loop iterates over [max(lowers), min(uppers)).
func ForBounded(v Var, lowers, uppers []Expr, body ...Node) *Loop {
	if len(lowers) == 0 || len(uppers) == 0 {
		panic("scop: ForBounded requires at least one lower and one upper bound")
	}
	return &Loop{Var: v, Lower: lowers[0], Upper: uppers[0],
		ExtraLower: append([]Expr(nil), lowers[1:]...),
		ExtraUpper: append([]Expr(nil), uppers[1:]...),
		Body:       body}
}

// Statement is a straight-line statement performing a list of array
// accesses in order (reads of the right-hand side followed by the write, in
// the order provided by the kernel author, mirroring the order a compiler
// front end would emit).
type Statement struct {
	Name     string
	Accesses []Access
}

func (*Statement) isNode() {}

// Stmt builds a statement node.
func Stmt(name string, accesses ...Access) *Statement {
	return &Statement{Name: name, Accesses: accesses}
}

// Program is a full static control program, optionally parametric in a set
// of symbolic problem-size parameters (section "parametric analysis" of
// ARCHITECTURE.md): parameters may appear in loop bounds, array subscripts,
// and array extents, and the analytical model can analyze the program once
// for all parameter values.
type Program struct {
	Name   string
	Arrays []*Array
	Root   []Node
	// Params are the symbolic problem-size parameters in declaration order.
	Params []string
	// Context are affine expressions over the parameters that are known to
	// be non-negative (the context set of the program, e.g. N-1 >= 0 for a
	// parameter declared with NewParam).
	Context []Expr
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program { return &Program{Name: name} }

// NewParam declares a symbolic problem-size parameter and returns a variable
// usable in loop bounds, subscripts, and array extents. The context set
// implicitly gains name >= 1 (problem sizes are positive); additional
// constraints can be added with Require.
func (p *Program) NewParam(name string) Var {
	p.Params = append(p.Params, name)
	p.Context = append(p.Context, Expr{Const: -1, Coeffs: map[string]int64{name: 1}})
	return Var{Name: name}
}

// Require adds the context constraint e >= 0 over the program parameters.
func (p *Program) Require(e Expr) *Program {
	p.Context = append(p.Context, e)
	return p
}

// IsParametric reports whether the program has symbolic parameters.
func (p *Program) IsParametric() bool { return len(p.Params) > 0 }

// paramSet returns the parameter names as a set.
func (p *Program) paramSet() map[string]bool {
	out := make(map[string]bool, len(p.Params))
	for _, n := range p.Params {
		out[n] = true
	}
	return out
}

// NewArray declares an array in the program.
func (p *Program) NewArray(name string, elem int64, dims ...int64) *Array {
	a := &Array{Name: name, Elem: elem, Dims: append([]int64(nil), dims...)}
	p.Arrays = append(p.Arrays, a)
	return a
}

// NewArrayP declares an array whose extents are affine expressions over the
// program parameters (constant expressions are allowed too). The array stays
// symbolic until the program is instantiated.
func (p *Program) NewArrayP(name string, elem int64, dims ...Expr) *Array {
	exprs := make([]Expr, len(dims))
	for i, d := range dims {
		exprs[i] = d.clone()
	}
	a := &Array{Name: name, Elem: elem, DimExprs: exprs}
	p.Arrays = append(p.Arrays, a)
	return a
}

// Add appends top-level nodes to the program.
func (p *Program) Add(nodes ...Node) *Program {
	p.Root = append(p.Root, nodes...)
	return p
}

// Statements returns the statements of the program in textual order,
// together with their enclosing loops (outermost first).
func (p *Program) Statements() []*StatementInstance {
	var out []*StatementInstance
	var walk func(nodes []Node, loops []*Loop)
	walk = func(nodes []Node, loops []*Loop) {
		for _, n := range nodes {
			switch n := n.(type) {
			case *Loop:
				walk(n.Body, append(append([]*Loop(nil), loops...), n))
			case *Statement:
				out = append(out, &StatementInstance{Statement: n, Loops: append([]*Loop(nil), loops...)})
			default:
				panic(fmt.Sprintf("scop: unknown node type %T", n))
			}
		}
	}
	walk(p.Root, nil)
	return out
}

// StatementInstance pairs a statement with its enclosing loops.
type StatementInstance struct {
	Statement *Statement
	Loops     []*Loop
}

// Depth returns the nesting depth of the statement.
func (s *StatementInstance) Depth() int { return len(s.Loops) }

// LoopVars returns the names of the enclosing loop variables, outermost
// first.
func (s *StatementInstance) LoopVars() []string {
	out := make([]string, len(s.Loops))
	for i, l := range s.Loops {
		out[i] = l.Var.Name
	}
	return out
}

// The kinds of structural findings. They are the diagnostic kinds of the
// static checker (internal/scopcheck) too, so each is spelled once, here.
const (
	// KindUndeclaredArray: an access to an array the program does not
	// declare.
	KindUndeclaredArray = "undeclared-array"
	// KindSubscriptArity: an access whose subscript count differs from the
	// rank of the array.
	KindSubscriptArity = "subscript-arity"
	// KindDanglingVariable: a subscript or loop bound referencing a name
	// that is neither an enclosing (for a bound: outer) loop variable nor a
	// program parameter.
	KindDanglingVariable = "dangling-variable"
	// KindDuplicateStatement: two statements sharing a name.
	KindDuplicateStatement = "duplicate-statement"
	// KindDuplicateParameter: a parameter declared twice.
	KindDuplicateParameter = "duplicate-parameter"
	// KindShadowedParameter: a loop variable shadowing a parameter.
	KindShadowedParameter = "shadowed-parameter"
	// KindNoAccesses: a statement without memory accesses.
	KindNoAccesses = "no-accesses"
	// KindBadArray: a malformed array declaration (zero rank, non-positive
	// element size, or an extent referencing a non-parameter).
	KindBadArray = "bad-array"
	// KindBadContext: a context constraint referencing a non-parameter.
	KindBadContext = "bad-context"
)

// Finding is one structural violation of a program.
type Finding struct {
	// Kind is one of the Kind constants.
	Kind string
	// Statement names the statement the finding concerns ("" for
	// program-level findings).
	Statement string
	// Array names the array of array and access findings.
	Array string
	// AccessIndex is the position of the offending access within its
	// statement, -1 when not applicable.
	AccessIndex int
	// Message is the human-readable description.
	Message string
}

// ValidationError is the error of Validate and BuildPoly: every structural
// finding of the program, in walk order.
type ValidationError struct {
	Program  string
	Findings []Finding
}

func (e *ValidationError) Error() string {
	f := e.Findings[0]
	var b strings.Builder
	fmt.Fprintf(&b, "scop: program %s: %s", e.Program, f.Kind)
	if f.Statement != "" {
		fmt.Fprintf(&b, ": statement %s", f.Statement)
	}
	fmt.Fprintf(&b, ": %s", f.Message)
	if n := len(e.Findings) - 1; n > 0 {
		fmt.Fprintf(&b, " (and %d more)", n)
	}
	return b.String()
}

// Validate checks the structural invariants of the program in one walk
// that collects every violation: unique parameter and statement names,
// context constraints and array extents over parameters only, well-formed
// arrays, statements with accesses to declared arrays at the right arity,
// loop variables that do not shadow parameters, and loop bounds and
// subscripts over bound names only. It returns a *ValidationError listing
// the findings, or nil.
func (p *Program) Validate() error {
	var fs []Finding
	add := func(kind, stmt, array string, acc int, format string, args ...any) {
		fs = append(fs, Finding{Kind: kind, Statement: stmt, Array: array, AccessIndex: acc,
			Message: fmt.Sprintf(format, args...)})
	}

	params := map[string]bool{}
	for _, n := range p.Params {
		if params[n] {
			add(KindDuplicateParameter, "", "", -1, "parameter %s is declared twice", n)
			continue
		}
		params[n] = true
	}
	isParam := func(v string) bool { return params[v] }
	for _, ctx := range p.Context {
		for _, v := range unbound(ctx, isParam) {
			add(KindBadContext, "", "", -1, "context constraint %s >= 0 references non-parameter %s", ctx, v)
		}
	}

	declared := map[*Array]bool{}
	for _, a := range p.Arrays {
		declared[a] = true
		if a.Rank() == 0 {
			add(KindBadArray, "", a.Name, -1, "array %s has no dimensions", a.Name)
		}
		if a.Elem <= 0 {
			add(KindBadArray, "", a.Name, -1, "array %s has non-positive element size %d", a.Name, a.Elem)
		}
		for i, de := range a.DimExprs {
			for _, v := range unbound(de, isParam) {
				add(KindBadArray, "", a.Name, -1, "extent %d of array %s references non-parameter %s", i, a.Name, v)
			}
		}
	}

	names := map[string]bool{}
	for _, si := range p.Statements() {
		stmt := si.Statement.Name
		if names[stmt] {
			add(KindDuplicateStatement, stmt, "", -1, "statement name %s is used twice", stmt)
		}
		names[stmt] = true
		if len(si.Statement.Accesses) == 0 {
			add(KindNoAccesses, stmt, "", -1, "statement performs no memory accesses")
		}

		// A bound may reference parameters, outer loop variables and its
		// own loop variable; a subscript any enclosing loop variable.
		vars := map[string]bool{}
		for _, loop := range si.Loops {
			v := loop.Var.Name
			if params[v] {
				add(KindShadowedParameter, stmt, "", -1, "loop variable %s shadows a program parameter", v)
			}
			inBound := func(n string) bool { return n == v || vars[n] || params[n] }
			for _, e := range append(append([]Expr{loop.Lower, loop.Upper}, loop.ExtraLower...), loop.ExtraUpper...) {
				for _, n := range unbound(e, inBound) {
					add(KindDanglingVariable, stmt, "", -1,
						"bound of loop %s references %s, which is neither a parameter nor an outer loop variable", v, n)
				}
			}
			vars[v] = true
		}
		inScope := func(n string) bool { return vars[n] || params[n] }

		for accIdx, acc := range si.Statement.Accesses {
			arr := acc.Array.Name
			if !declared[acc.Array] {
				add(KindUndeclaredArray, stmt, arr, accIdx, "access to array %s, which the program does not declare", arr)
				continue
			}
			if len(acc.Index) != acc.Array.Rank() {
				add(KindSubscriptArity, stmt, arr, accIdx, "access to %s has %d subscripts, array has %d dimensions",
					arr, len(acc.Index), acc.Array.Rank())
			}
			for _, idx := range acc.Index {
				for _, n := range unbound(idx, inScope) {
					add(KindDanglingVariable, stmt, arr, accIdx,
						"subscript references %s, which is neither a parameter nor an enclosing loop variable", n)
				}
			}
		}
	}
	if len(fs) > 0 {
		return &ValidationError{Program: p.Name, Findings: fs}
	}
	return nil
}

// unbound returns the names with a nonzero coefficient in e that bound
// rejects, sorted so the findings come out deterministically.
func unbound(e Expr, bound func(string) bool) []string {
	var out []string
	for n, c := range e.Coeffs {
		if c != 0 && !bound(n) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// CheckBindings validates a parameter binding against the program: every
// parameter must be bound, no unknown names may appear, and the context
// constraints must hold at the values. It is the single binding validator
// shared by Instantiate and the parametric model's evaluation paths.
func (p *Program) CheckBindings(bindings map[string]int64) error {
	params := p.paramSet()
	for name := range bindings {
		if !params[name] {
			return fmt.Errorf("scop: binding for unknown parameter %s", name)
		}
	}
	for _, name := range p.Params {
		if _, ok := bindings[name]; !ok {
			return fmt.Errorf("scop: parameter %s is unbound", name)
		}
	}
	for _, ctx := range p.Context {
		v, ok := ctx.Bind(bindings).IsConstant()
		if !ok || v < 0 {
			return fmt.Errorf("scop: bindings violate context constraint %s >= 0", ctx)
		}
	}
	return nil
}

// Instantiate substitutes concrete values for every program parameter and
// returns the resulting non-parametric program: array extents are evaluated,
// parameter occurrences in loop bounds and subscripts fold into constants,
// and the context constraints are checked against the values. Programs
// without parameters are returned unchanged.
func (p *Program) Instantiate(bindings map[string]int64) (*Program, error) {
	if !p.IsParametric() {
		if len(bindings) > 0 {
			return nil, fmt.Errorf("scop: program %s has no parameters to bind", p.Name)
		}
		return p, nil
	}
	if err := p.CheckBindings(bindings); err != nil {
		return nil, err
	}
	out := NewProgram(p.Name)
	arrayMap := make(map[*Array]*Array, len(p.Arrays))
	for _, a := range p.Arrays {
		dims := a.Dims
		if a.IsParametric() {
			dims = make([]int64, len(a.DimExprs))
			for i, de := range a.DimExprs {
				v, ok := de.Bind(bindings).IsConstant()
				if !ok {
					return nil, fmt.Errorf("scop: extent %d of array %s stays symbolic after binding", i, a.Name)
				}
				if v <= 0 {
					return nil, fmt.Errorf("scop: extent %d of array %s evaluates to %d", i, a.Name, v)
				}
				dims[i] = v
			}
		}
		arrayMap[a] = out.NewArray(a.Name, a.Elem, dims...)
	}
	var instNodes func(nodes []Node) []Node
	instNodes = func(nodes []Node) []Node {
		res := make([]Node, 0, len(nodes))
		for _, n := range nodes {
			switch n := n.(type) {
			case *Loop:
				nl := &Loop{Var: n.Var, Lower: n.Lower.Bind(bindings), Upper: n.Upper.Bind(bindings)}
				for _, e := range n.ExtraLower {
					nl.ExtraLower = append(nl.ExtraLower, e.Bind(bindings))
				}
				for _, e := range n.ExtraUpper {
					nl.ExtraUpper = append(nl.ExtraUpper, e.Bind(bindings))
				}
				nl.Body = instNodes(n.Body)
				res = append(res, nl)
			case *Statement:
				ns := &Statement{Name: n.Name}
				for _, acc := range n.Accesses {
					na := Access{Array: arrayMap[acc.Array], Write: acc.Write}
					for _, idx := range acc.Index {
						na.Index = append(na.Index, idx.Bind(bindings))
					}
					ns.Accesses = append(ns.Accesses, na)
				}
				res = append(res, ns)
			default:
				panic(fmt.Sprintf("scop: unknown node type %T", n))
			}
		}
		return res
	}
	out.Root = instNodes(p.Root)
	return out, nil
}
