package scop

import (
	"testing"

	"haystack/internal/ints"
	"haystack/internal/presburger"
)

// paperExample builds the example program of Figure 2 of the paper:
//
//	for(i=0..3) S0: M[i] = i
//	for(j=0..3) S1: sum += M[3-j]
func paperExample() (*Program, *Array) {
	p := NewProgram("example")
	m := p.NewArray("M", ElemFloat64, 4)
	i := V("i")
	j := V("j")
	p.Add(
		For(i, C(0), C(4), Stmt("S0", Write(m, X(i)))),
		For(j, C(0), C(4), Stmt("S1", Read(m, C(3).Minus(X(j))))),
	)
	return p, m
}

func gemmLike(n int64) *Program {
	p := NewProgram("gemm")
	a := p.NewArray("A", ElemFloat64, n, n)
	b := p.NewArray("B", ElemFloat64, n, n)
	c := p.NewArray("C", ElemFloat64, n, n)
	i, j, k := V("i"), V("j"), V("k")
	p.Add(
		For(i, C(0), C(n),
			For(j, C(0), C(n),
				Stmt("S0", Read(c, X(i), X(j)), Write(c, X(i), X(j))),
				For(k, C(0), C(n),
					Stmt("S1", Read(a, X(i), X(k)), Read(b, X(k), X(j)), Read(c, X(i), X(j)), Write(c, X(i), X(j)))))))
	return p
}

func TestValidate(t *testing.T) {
	p, _ := paperExample()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Wrong arity must be rejected.
	bad := NewProgram("bad")
	m := bad.NewArray("M", ElemFloat64, 4, 4)
	bad.Add(For(V("i"), C(0), C(4), Stmt("S0", Read(m, X(V("i"))))))
	if err := bad.Validate(); err == nil {
		t.Fatal("expected arity error")
	}
	// Unbound variable must be rejected.
	bad2 := NewProgram("bad2")
	m2 := bad2.NewArray("M", ElemFloat64, 4)
	bad2.Add(For(V("i"), C(0), C(4), Stmt("S0", Read(m2, X(V("z"))))))
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected unbound variable error")
	}
	// Duplicate statement names must be rejected.
	bad3 := NewProgram("bad3")
	m3 := bad3.NewArray("M", ElemFloat64, 4)
	bad3.Add(
		For(V("i"), C(0), C(4), Stmt("S0", Read(m3, X(V("i"))))),
		For(V("j"), C(0), C(4), Stmt("S0", Read(m3, X(V("j"))))),
	)
	if err := bad3.Validate(); err == nil {
		t.Fatal("expected duplicate name error")
	}
}

func TestExprArithmetic(t *testing.T) {
	i, j := V("i"), V("j")
	e := X(i).Scale(2).Plus(X(j)).Minus(C(3))
	env := map[string]int64{"i": 5, "j": 1}
	if got := e.Eval(env); got != 8 {
		t.Fatalf("eval = %d, want 8", got)
	}
	if e.String() == "" {
		t.Fatal("empty expression rendering")
	}
}

func TestStatementsAndDepth(t *testing.T) {
	p := gemmLike(8)
	stmts := p.Statements()
	if len(stmts) != 2 {
		t.Fatalf("statements = %d, want 2", len(stmts))
	}
	if stmts[0].Depth() != 2 || stmts[1].Depth() != 3 {
		t.Fatalf("depths = %d, %d", stmts[0].Depth(), stmts[1].Depth())
	}
	if p.MaxDepth() != 3 {
		t.Fatalf("max depth = %d", p.MaxDepth())
	}
}

func TestBuildPolyExample(t *testing.T) {
	p, _ := paperExample()
	info, err := BuildPoly(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Statements) != 2 {
		t.Fatalf("statements = %d", len(info.Statements))
	}
	// Domain sizes: 4 iterations x 1 access each.
	for _, ps := range info.Statements {
		n, err := ps.Domain.CountByScan()
		if err != nil {
			t.Fatal(err)
		}
		if n != 4 {
			t.Fatalf("%s domain size = %d, want 4", ps.Name, n)
		}
	}
	// The schedule must totally order the 8 accesses: S0 instances first.
	sched := info.Schedule()
	s0, ok := sched.Get("S0", ScheduleSpaceName)
	if !ok {
		t.Fatal("missing S0 schedule")
	}
	s1, ok := sched.Get("S1", ScheduleSpaceName)
	if !ok {
		t.Fatal("missing S1 schedule")
	}
	// S0(i=2,a=0) -> (0, 2, 0, 0) ; S1(j=1,a=0) -> (1, 1, 0, 0).
	if !s0.Contains([]int64{2, 0, 0, 2, 0, 0}) {
		t.Fatalf("S0 schedule wrong: %v", s0)
	}
	if !s1.Contains([]int64{1, 0, 1, 1, 0, 0}) {
		t.Fatalf("S1 schedule wrong: %v", s1)
	}
	// Access map: S1(j=1,a=0) accesses M(2).
	acc := info.AccessMap()
	am, ok := acc.Get("S1", "M")
	if !ok {
		t.Fatal("missing S1->M access map")
	}
	if !am.Contains([]int64{1, 0, 2}) || am.Contains([]int64{1, 0, 1}) {
		t.Fatalf("access map wrong: %v", am)
	}
}

func TestLineAccessMap(t *testing.T) {
	p, _ := paperExample()
	info, err := BuildPoly(p)
	if err != nil {
		t.Fatal(err)
	}
	// 64-byte lines and 8-byte elements: elements 0..3 share line 0.
	acc := info.LineAccessMap(64)
	am, ok := acc.Get("S0", "M")
	if !ok {
		t.Fatal("missing S0->M line access map")
	}
	for i := int64(0); i < 4; i++ {
		if !am.Contains([]int64{i, 0, 0}) {
			t.Fatalf("element %d should map to line 0", i)
		}
		if am.Contains([]int64{i, 0, 1}) {
			t.Fatalf("element %d should not map to line 1", i)
		}
	}
	// 16-byte lines: elements 0,1 -> line 0; elements 2,3 -> line 1.
	acc16 := info.LineAccessMap(16)
	am16, _ := acc16.Get("S0", "M")
	if !am16.Contains([]int64{0, 0, 0}) || !am16.Contains([]int64{2, 0, 1}) || am16.Contains([]int64{2, 0, 0}) {
		t.Fatalf("16-byte line map wrong: %v", am16)
	}
}

func TestLayoutNaturalVsPadded(t *testing.T) {
	p := NewProgram("layout")
	a := p.NewArray("A", ElemFloat64, 3, 5) // 40-byte rows
	b := p.NewArray("B", ElemFloat64, 7)
	natural := NewLayout(p, LayoutNatural, 64)
	padded := NewLayout(p, LayoutPadded, 64)
	if natural.Strides(a)[0] != 40 {
		t.Fatalf("natural row stride = %d, want 40", natural.Strides(a)[0])
	}
	if padded.Strides(a)[0] != 64 {
		t.Fatalf("padded row stride = %d, want 64", padded.Strides(a)[0])
	}
	if natural.Base(a)%64 != 0 || natural.Base(b)%64 != 0 {
		t.Fatal("array bases must be line aligned")
	}
	if natural.Base(b) <= natural.Base(a) {
		t.Fatal("arrays must not overlap")
	}
	if padded.TotalBytes(p) < natural.TotalBytes(p) {
		t.Fatal("padded layout cannot be smaller than natural layout")
	}
}

func TestCompileAndTrace(t *testing.T) {
	p, m := paperExample()
	layout := NewLayout(p, LayoutNatural, 64)
	cp, err := Compile(p, layout)
	if err != nil {
		t.Fatal(err)
	}
	var refs []MemRef
	cp.ForEachAccess(func(r MemRef) bool {
		refs = append(refs, r)
		return true
	})
	if len(refs) != 8 {
		t.Fatalf("trace length = %d, want 8", len(refs))
	}
	base := layout.Base(m)
	// First four accesses: M[0..3] writes; last four: M[3..0] reads.
	for i := 0; i < 4; i++ {
		if refs[i].Addr != base+int64(i)*8 || !refs[i].Write {
			t.Fatalf("ref %d = %+v", i, refs[i])
		}
	}
	for j := 0; j < 4; j++ {
		if refs[4+j].Addr != base+int64(3-j)*8 || refs[4+j].Write {
			t.Fatalf("ref %d = %+v", 4+j, refs[4+j])
		}
	}
	if cp.CountAccesses() != 8 {
		t.Fatalf("access count = %d", cp.CountAccesses())
	}
}

func TestTraceCountMatchesDomainSize(t *testing.T) {
	p := gemmLike(6)
	layout := NewLayout(p, LayoutNatural, 64)
	cp, err := Compile(p, layout)
	if err != nil {
		t.Fatal(err)
	}
	info, err := BuildPoly(p)
	if err != nil {
		t.Fatal(err)
	}
	var domainTotal int64
	for _, ps := range info.Statements {
		n, err := ps.Domain.CountByScan()
		if err != nil {
			t.Fatal(err)
		}
		domainTotal += n
	}
	if got := cp.CountAccesses(); got != domainTotal {
		t.Fatalf("trace length %d != domain size %d", got, domainTotal)
	}
	inst := DynamicStatementInstances(p)
	if inst["S0"] != 36 || inst["S1"] != 216 {
		t.Fatalf("instances = %v", inst)
	}
}

func TestTriangularLoopTrace(t *testing.T) {
	// for i in [0,5): for j in [0, i+1): S reads A[i][j]
	p := NewProgram("tri")
	a := p.NewArray("A", ElemFloat64, 5, 5)
	i, j := V("i"), V("j")
	p.Add(For(i, C(0), C(5), For(j, C(0), X(i).Plus(C(1)), Stmt("S0", Read(a, X(i), X(j))))))
	layout := NewLayout(p, LayoutNatural, 64)
	cp, err := Compile(p, layout)
	if err != nil {
		t.Fatal(err)
	}
	if got := cp.CountAccesses(); got != 15 {
		t.Fatalf("triangular trace length = %d, want 15", got)
	}
	info, err := BuildPoly(p)
	if err != nil {
		t.Fatal(err)
	}
	n, err := info.Statements[0].Domain.CountByScan()
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Fatalf("triangular domain = %d, want 15", n)
	}
}

// MaxDepth returns the maximum statement nesting depth of the program.
func (p *Program) MaxDepth() int {
	d := 0
	for _, s := range p.Statements() {
		if s.Depth() > d {
			d = s.Depth()
		}
	}
	return d
}

// AccessMap returns the union access map at array element granularity:
// statement instances (with their access dimension) to array elements.
func (info *PolyInfo) AccessMap() presburger.UnionMap {
	return info.accessMap(0)
}

// TotalBytes returns the footprint of the layout.
func (l *Layout) TotalBytes(p *Program) int64 {
	var end int64
	for _, a := range p.Arrays {
		strides := l.strides[a.Name]
		size := strides[0] * a.Dims[0]
		if len(a.Dims) == 1 {
			size = a.Dims[0] * a.Elem
			if l.Kind == LayoutPadded {
				size = ints.CeilDiv(size, l.LineSize) * l.LineSize
			}
		}
		if l.bases[a.Name]+size > end {
			end = l.bases[a.Name] + size
		}
	}
	return end
}
