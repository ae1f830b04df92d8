package scopcheck_test

import (
	"errors"
	"testing"

	"haystack/internal/polybench"
	"haystack/internal/presburger"
	"haystack/internal/scop"
	"haystack/internal/scopcheck"
)

// TestPolyBenchClean asserts that every PolyBench kernel — concrete at Mini
// and the parametric builders — verifies with zero diagnostics, warnings
// included. This is the positive half of the checker's contract: the 30
// kernels are the known-good corpus, so any finding on them is a checker
// bug (or a kernel bug, which has happened).
func TestPolyBenchClean(t *testing.T) {
	for _, k := range polybench.Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			diags := scopcheck.Check(k.Build(polybench.Mini))
			for _, d := range diags {
				t.Errorf("unexpected diagnostic: %s", d)
			}
		})
	}
	for _, k := range polybench.ParametricKernels() {
		k := k
		t.Run("parametric/"+k.Name, func(t *testing.T) {
			diags := scopcheck.Check(k.Build())
			for _, d := range diags {
				t.Errorf("unexpected diagnostic: %s", d)
			}
		})
	}
}

// oobProgram builds a program reading A[i] for i in [0, 5) over an array of
// extent 4: the canonical out-of-bounds victim. The first failing instance
// is i=4 reading element 4.
func oobProgram() *scop.Program {
	p := scop.NewProgram("oob")
	A := p.NewArray("A", scop.ElemFloat64, 4)
	i := scop.V("i")
	p.Add(scop.For(i, scop.C(0), scop.C(5),
		scop.Stmt("S0", scop.Read(A, scop.X(i)))))
	return p
}

func TestCheckOutOfBounds(t *testing.T) {
	diags := scopcheck.Check(oobProgram())
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Kind != scopcheck.KindOutOfBounds || d.Severity != scopcheck.Error {
		t.Fatalf("want out-of-bounds error, got %s", d)
	}
	if d.Statement != "S0" || d.Array != "A" || d.AccessIndex != 0 {
		t.Fatalf("wrong attribution: %s", d)
	}
	// Witness: instance (i=4, a=0) touching element d0=4 — the first
	// failing instance in execution order.
	wantPoint := []int64{4, 0, 4}
	wantDims := []string{"i", "a", "d0"}
	if len(d.Witness) != len(wantPoint) {
		t.Fatalf("witness %v, want %v", d.Witness, wantPoint)
	}
	for k := range wantPoint {
		if d.Witness[k] != wantPoint[k] || d.WitnessDims[k] != wantDims[k] {
			t.Fatalf("witness %v over %v, want %v over %v", d.Witness, d.WitnessDims, wantPoint, wantDims)
		}
	}
}

// TestCheckNegativeSubscript exercises the lower-bound direction: B[j-1]
// for j starting at 0.
func TestCheckNegativeSubscript(t *testing.T) {
	p := scop.NewProgram("neg")
	B := p.NewArray("B", scop.ElemFloat64, 8)
	j := scop.V("j")
	p.Add(scop.For(j, scop.C(0), scop.C(8),
		scop.Stmt("S0", scop.Write(B, scop.X(j).Minus(scop.C(1))))))
	diags := scopcheck.Check(p)
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Kind != scopcheck.KindOutOfBounds || d.Severity != scopcheck.Error {
		t.Fatalf("want out-of-bounds error, got %s", d)
	}
	// First failing instance: j=0 writing element -1.
	want := []int64{0, 0, -1}
	for k := range want {
		if d.Witness[k] != want[k] {
			t.Fatalf("witness %v, want %v", d.Witness, want)
		}
	}
}

// TestCheckParametricOutOfBounds verifies the bounds proof works symbolically:
// A has extent N but the loop runs to N+1, which overflows for every N.
func TestCheckParametricOutOfBounds(t *testing.T) {
	p := scop.NewProgram("paramoob")
	N := p.NewParam("N")
	A := p.NewArrayP("A", scop.ElemFloat64, scop.X(N))
	i := scop.V("i")
	p.Add(scop.For(i, scop.C(0), scop.X(N).Plus(scop.C(1)),
		scop.Stmt("S0", scop.Read(A, scop.X(i)))))
	diags := scopcheck.Check(p)
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Kind != scopcheck.KindOutOfBounds || d.Severity != scopcheck.Error {
		t.Fatalf("want out-of-bounds error, got %s", d)
	}
	// The lexicographically first violation minimizes the parameter too:
	// N=1 (the context lower bound), instance i=1 reading element 1.
	want := []int64{1, 1, 0, 1}
	wantDims := []string{"N", "i", "a", "d0"}
	if len(d.Witness) != len(want) {
		t.Fatalf("witness %v over %v, want %v", d.Witness, d.WitnessDims, want)
	}
	for k := range want {
		if d.Witness[k] != want[k] || d.WitnessDims[k] != wantDims[k] {
			t.Fatalf("witness %v over %v, want %v over %v", d.Witness, d.WitnessDims, want, wantDims)
		}
	}
}

// TestCheckBrokenPrograms is the table-driven negative suite: each case is
// one intentionally broken program with the exact expected diagnostic.
func TestCheckBrokenPrograms(t *testing.T) {
	i, j := scop.V("i"), scop.V("j")
	cases := []struct {
		name      string
		build     func() *scop.Program
		kind      scopcheck.Kind
		severity  scopcheck.Severity
		statement string
		witness   []int64 // nil: don't check the point
		// structural rows must be rejected by scop's Validate with the same
		// kind first; the other rows pass it (only the Presburger pass sees
		// them).
		structural bool
	}{
		{
			name: "empty-domain",
			build: func() *scop.Program {
				p := scop.NewProgram("empty")
				A := p.NewArray("A", scop.ElemFloat64, 4)
				p.Add(scop.For(i, scop.C(2), scop.C(2),
					scop.Stmt("S0", scop.Read(A, scop.X(i)))))
				return p
			},
			kind: scopcheck.KindEmptyDomain, severity: scopcheck.Warning, statement: "S0",
		},
		{
			name: "dangling-parameter",
			build: func() *scop.Program {
				p := scop.NewProgram("dangling")
				A := p.NewArray("A", scop.ElemFloat64, 4)
				// Subscript references q, which is neither a loop variable
				// nor a declared parameter.
				p.Add(scop.For(i, scop.C(0), scop.C(4),
					scop.Stmt("S0", scop.Read(A, scop.X(scop.V("q"))))))
				return p
			},
			kind: scopcheck.KindDanglingVariable, severity: scopcheck.Error, statement: "S0", structural: true,
		},
		{
			name: "dangling-loop-bound",
			build: func() *scop.Program {
				p := scop.NewProgram("danglingbound")
				A := p.NewArray("A", scop.ElemFloat64, 4)
				// The upper bound references q, which is neither an outer
				// loop variable nor a declared parameter.
				p.Add(scop.For(i, scop.C(0), scop.X(scop.V("q")),
					scop.Stmt("S0", scop.Read(A, scop.X(i)))))
				return p
			},
			kind: scopcheck.KindDanglingVariable, severity: scopcheck.Error, statement: "S0", structural: true,
		},
		{
			name: "inner-loop-bound",
			build: func() *scop.Program {
				p := scop.NewProgram("innerbound")
				A := p.NewArray("A", scop.ElemFloat64, 4, 4)
				// The outer bound references the inner loop variable j.
				p.Add(scop.For(i, scop.C(0), scop.X(j),
					scop.For(j, scop.C(0), scop.C(4),
						scop.Stmt("S0", scop.Read(A, scop.X(i), scop.X(j))))))
				return p
			},
			kind: scopcheck.KindDanglingVariable, severity: scopcheck.Error, statement: "S0", structural: true,
		},
		{
			name: "undeclared-array",
			build: func() *scop.Program {
				p := scop.NewProgram("undeclared")
				ghost := &scop.Array{Name: "G", Elem: 8, Dims: []int64{4}}
				p.Add(scop.For(i, scop.C(0), scop.C(4),
					scop.Stmt("S0", scop.Read(ghost, scop.X(i)))))
				return p
			},
			kind: scopcheck.KindUndeclaredArray, severity: scopcheck.Error, statement: "S0", structural: true,
		},
		{
			name: "subscript-arity",
			build: func() *scop.Program {
				p := scop.NewProgram("arity")
				A := p.NewArray("A", scop.ElemFloat64, 4, 4)
				p.Add(scop.For(i, scop.C(0), scop.C(4),
					scop.Stmt("S0", scop.Read(A, scop.X(i)))))
				return p
			},
			kind: scopcheck.KindSubscriptArity, severity: scopcheck.Error, statement: "S0", structural: true,
		},
		{
			name: "duplicate-statement",
			build: func() *scop.Program {
				p := scop.NewProgram("dup")
				A := p.NewArray("A", scop.ElemFloat64, 4)
				p.Add(
					scop.For(i, scop.C(0), scop.C(4), scop.Stmt("S0", scop.Read(A, scop.X(i)))),
					scop.For(j, scop.C(0), scop.C(4), scop.Stmt("S0", scop.Read(A, scop.X(j)))),
				)
				return p
			},
			kind: scopcheck.KindDuplicateStatement, severity: scopcheck.Error, statement: "S0", structural: true,
		},
		{
			name: "infeasible-context",
			build: func() *scop.Program {
				p := scop.NewProgram("infeasible")
				N := p.NewParam("N")
				// N >= 1 (implicit) and N <= -1: no value satisfies both.
				p.Require(scop.C(-1).Minus(scop.X(N)))
				A := p.NewArrayP("A", scop.ElemFloat64, scop.X(N))
				p.Add(scop.For(i, scop.C(0), scop.X(N),
					scop.Stmt("S0", scop.Read(A, scop.X(i)))))
				return p
			},
			kind: scopcheck.KindInfeasibleContext, severity: scopcheck.Error,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog := tc.build()
			err := prog.Validate()
			var ve *scop.ValidationError
			switch {
			case !tc.structural && err != nil:
				t.Errorf("Validate rejects a structurally sound program: %v", err)
			case tc.structural && !errors.As(err, &ve):
				t.Errorf("Validate: want a *scop.ValidationError, got %v", err)
			case tc.structural && scopcheck.Kind(ve.Findings[0].Kind) != tc.kind:
				t.Errorf("Validate's first finding is %s, want %s", ve.Findings[0].Kind, tc.kind)
			}
			diags := scopcheck.Check(prog)
			if len(diags) == 0 {
				t.Fatalf("want a %s diagnostic, got none", tc.kind)
			}
			var found *scopcheck.Diagnostic
			for k := range diags {
				if diags[k].Kind == tc.kind {
					found = &diags[k]
					break
				}
			}
			if found == nil {
				t.Fatalf("want a %s diagnostic, got %v", tc.kind, diags)
			}
			if found.Severity != tc.severity {
				t.Errorf("severity %s, want %s", found.Severity, tc.severity)
			}
			if found.Statement != tc.statement {
				t.Errorf("statement %q, want %q", found.Statement, tc.statement)
			}
			if tc.witness != nil {
				if len(found.Witness) != len(tc.witness) {
					t.Fatalf("witness %v, want %v", found.Witness, tc.witness)
				}
				for k := range tc.witness {
					if found.Witness[k] != tc.witness[k] {
						t.Fatalf("witness %v, want %v", found.Witness, tc.witness)
					}
				}
			}
		})
	}
}

// TestCheckNonInjectiveSchedule hand-mutates a schedule so two statements
// land on identical time stamps, and asserts the injectivity proof refutes
// it with a concrete instance pair. BuildPoly's schedules are injective by
// construction, so the breakage is injected at the polyhedral layer.
func TestCheckNonInjectiveSchedule(t *testing.T) {
	p := scop.NewProgram("noninj")
	A := p.NewArray("A", scop.ElemFloat64, 4)
	i, j := scop.V("i"), scop.V("j")
	p.Add(
		scop.For(i, scop.C(0), scop.C(4), scop.Stmt("S0", scop.Read(A, scop.X(i)))),
		scop.For(j, scop.C(0), scop.C(4), scop.Stmt("S1", scop.Read(A, scop.X(j)))),
	)
	info, err := scop.BuildPoly(p)
	if err != nil {
		t.Fatal(err)
	}
	// Graft S0's schedule shape onto S1: rebuild S0's basic map over S1's
	// instance space (same arity, so divs and constraints transfer
	// verbatim). Both statements now occupy time stamps (0, v, 0, a).
	s0, _ := info.StatementByName("S0")
	s1, _ := info.StatementByName("S1")
	var grafted []presburger.BasicMap
	for _, bm := range s0.Schedule.Basics() {
		grafted = append(grafted,
			presburger.NewBasicMap(s1.Space, bm.OutSpace(), bm.Divs(), bm.Constraints()))
	}
	s1.Schedule = presburger.MapFromBasics(grafted...)
	diags := scopcheck.CheckPoly(info)
	var found *scopcheck.Diagnostic
	for k := range diags {
		if diags[k].Kind == scopcheck.KindScheduleNotInjective {
			found = &diags[k]
			break
		}
	}
	if found == nil {
		t.Fatalf("want schedule-not-injective, got %v", diags)
	}
	if found.Severity != scopcheck.Error {
		t.Errorf("severity %s, want error", found.Severity)
	}
	// Witness: the lexicographically first clashing pair (i=0,a=0)/(j=0,a=0).
	want := []int64{0, 0, 0, 0}
	if len(found.Witness) != len(want) {
		t.Fatalf("witness %v, want %v", found.Witness, want)
	}
	for k := range want {
		if found.Witness[k] != want[k] {
			t.Fatalf("witness %v, want %v", found.Witness, want)
		}
	}
}

// TestCheckScheduleNotTotal removes part of a schedule's domain and asserts
// the totality proof reports the uncovered instance.
func TestCheckScheduleNotTotal(t *testing.T) {
	p := scop.NewProgram("nontotal")
	A := p.NewArray("A", scop.ElemFloat64, 4)
	i := scop.V("i")
	p.Add(scop.For(i, scop.C(0), scop.C(4), scop.Stmt("S0", scop.Read(A, scop.X(i)))))
	info, err := scop.BuildPoly(p)
	if err != nil {
		t.Fatal(err)
	}
	s0 := info.Statements[0]
	// Restrict the schedule to i <= 2: instance i=3 loses its time stamp.
	var restricted []presburger.BasicMap
	for _, bm := range s0.Schedule.Basics() {
		c := presburger.Constraint{C: presburger.NewVec(bm.NCols())}
		c.C[0] = 2
		c.C[1] = -1 // first input dim is i: 2 - i >= 0
		restricted = append(restricted, bm.AddConstraint(c))
	}
	s0.Schedule = presburger.MapFromBasics(restricted...)
	diags := scopcheck.CheckPoly(info)
	var found *scopcheck.Diagnostic
	for k := range diags {
		if diags[k].Kind == scopcheck.KindScheduleNotTotal {
			found = &diags[k]
			break
		}
	}
	if found == nil {
		t.Fatalf("want schedule-not-total, got %v", diags)
	}
	if len(found.Witness) != 2 || found.Witness[0] != 3 || found.Witness[1] != 0 {
		t.Fatalf("witness %v, want (i=3, a=0)", found.Witness)
	}
}
