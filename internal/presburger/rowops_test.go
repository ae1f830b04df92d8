package presburger

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"haystack/internal/ints"
)

// Differential oracle for the copy-free row kernels. The ref* functions are
// the copy-always implementations the kernels replaced: every read went
// through a padded copy and every rewrite cloned the row. They are kept as
// the specification. The kernels must produce the same basics as the
// references (rows compared as coefficient vectors, a missing column reading
// as zero) and must never touch the basic a copy was taken from. The
// references index constraint rows directly, so inputs keep constraint rows
// full width; div numerators may be short.

func refSubstituteColumn(b *basic, col int, expr Vec, den int64) {
	if den <= 0 {
		panic("presburger: substituteColumn with non-positive denominator")
	}
	expr = expr.Resized(b.ncols())
	if expr[col] != 0 {
		panic("presburger: substitution expression references substituted column")
	}
	for i := range b.cons {
		v := b.cons[i].C
		a := v[col]
		if a == 0 {
			continue
		}
		out := NewVec(len(v))
		for j := range v {
			out[j] = den*v[j] + a*expr[j]
		}
		out[col] = 0
		b.cons[i].C = out
	}
	for i := range b.divs {
		v := b.divs[i].Num.Resized(b.ncols())
		a := v[col]
		if a == 0 {
			b.divs[i].Num = v
			continue
		}
		out := NewVec(len(v))
		for j := range v {
			out[j] = den*v[j] + a*expr[j]
		}
		out[col] = 0
		b.divs[i].Num = out
		b.divs[i].Den = ints.MulChecked(b.divs[i].Den, den)
	}
}

func refSubstituteDivColumn(b *basic, col int, expr Vec) {
	expr = expr.Resized(b.ncols())
	apply := func(v Vec) Vec {
		v = v.Resized(b.ncols())
		k := v[col]
		if k == 0 {
			return v
		}
		out := v.Clone()
		for j := range out {
			out[j] += k * expr[j]
		}
		out[col] = 0
		return out
	}
	for i := range b.cons {
		b.cons[i].C = apply(b.cons[i].C)
	}
	for i := range b.divs {
		b.divs[i].Num = apply(b.divs[i].Num)
	}
}

func refDropColumn(b *basic, col int) {
	remove := func(v Vec) Vec {
		out := make(Vec, 0, len(v)-1)
		out = append(out, v[:col]...)
		out = append(out, v[col+1:]...)
		return out
	}
	for i := range b.cons {
		if b.cons[i].C[col] != 0 {
			panic("presburger: dropColumn of used column")
		}
		b.cons[i].C = remove(b.cons[i].C)
	}
	for i := range b.divs {
		if b.divs[i].Num.Resized(b.ncols())[col] != 0 {
			panic("presburger: dropColumn referenced by div")
		}
		b.divs[i].Num = remove(b.divs[i].Num.Resized(b.ncols()))
	}
	if col <= b.ndim {
		b.ndim--
	} else {
		di := col - b.ndim - 1
		b.divs = append(b.divs[:di], b.divs[di+1:]...)
	}
}

func refNormalizeDivs(b *basic) {
	for i := 0; i < len(b.divs); i++ {
		d := &b.divs[i]
		num := d.Num.Resized(b.ncols())
		g := d.Den
		for j := 1; j < len(num); j++ {
			g = ints.GCD(g, num[j])
		}
		if g > 1 {
			for j := 1; j < len(num); j++ {
				num[j] /= g
			}
			num[0] = ints.FloorDiv(num[0], g)
			d.Num = num
			d.Den = d.Den / g
		}
		if d.Den == 1 {
			col := b.divCol(i)
			expr := d.Num.Resized(b.ncols()).Clone()
			later := false
			for j := i; j < len(b.divs); j++ {
				if expr[b.divCol(j)] != 0 {
					later = true
				}
			}
			if expr[col] == 0 && !later {
				refSubstituteDivColumn(b, col, expr)
				refDropColumn(b, col)
				i--
			}
		}
	}
}

// sameRows compares two basics row by row, reading missing columns as zero.
func sameRows(got, want *basic) error {
	if got.ndim != want.ndim || len(got.divs) != len(want.divs) || len(got.cons) != len(want.cons) {
		return fmt.Errorf("shape (ndim %d, %d divs, %d constraints), want (%d, %d, %d)",
			got.ndim, len(got.divs), len(got.cons), want.ndim, len(want.divs), len(want.cons))
	}
	for i := range got.divs {
		if got.divs[i].Den != want.divs[i].Den || !vecsEqualTrimmed(got.divs[i].Num, want.divs[i].Num) {
			return fmt.Errorf("div %d is floor(%v/%d), want floor(%v/%d)", i, got.divs[i].Num, got.divs[i].Den, want.divs[i].Num, want.divs[i].Den)
		}
	}
	for i := range got.cons {
		if got.cons[i].Eq != want.cons[i].Eq || !vecsEqualTrimmed(got.cons[i].C, want.cons[i].C) {
			return fmt.Errorf("constraint %d is %v (eq %v), want %v (eq %v)", i, got.cons[i].C, got.cons[i].Eq, want.cons[i].C, want.cons[i].Eq)
		}
	}
	return nil
}

// sameExactly reports whether two basics are equal including row widths.
func sameExactly(a, b *basic) bool {
	if a.ndim != b.ndim || len(a.divs) != len(b.divs) || len(a.cons) != len(b.cons) {
		return false
	}
	eq := func(x, y Vec) bool {
		if len(x) != len(y) {
			return false
		}
		for j := range x {
			if x[j] != y[j] {
				return false
			}
		}
		return true
	}
	for i := range a.divs {
		if a.divs[i].Den != b.divs[i].Den || !eq(a.divs[i].Num, b.divs[i].Num) {
			return false
		}
	}
	for i := range a.cons {
		if a.cons[i].Eq != b.cons[i].Eq || !eq(a.cons[i].C, b.cons[i].C) {
			return false
		}
	}
	return true
}

// substitutionExpr builds an expression for column col out of b's own rows:
// the first constraint referencing col with that column cleared, or the
// constant 1 when none does.
func substitutionExpr(b *basic, col int) Vec {
	expr := NewVec(b.ncols())
	for _, c := range b.cons {
		if c.C.At(col) != 0 {
			copy(expr, c.C)
			expr[col] = 0
			return expr
		}
	}
	expr[0] = 1
	return expr
}

// copyRows copies b row by row, keeping every row's width (clone pads).
func copyRows(b *basic) *basic {
	c := &basic{ndim: b.ndim}
	for _, d := range b.divs {
		c.divs = append(c.divs, Div{Num: append(Vec(nil), d.Num...), Den: d.Den})
	}
	for _, r := range b.cons {
		c.cons = append(c.cons, Constraint{C: append(Vec(nil), r.C...), Eq: r.Eq})
	}
	return c
}

// diffRowOps runs every rewritten row kernel and its reference on copies of
// b and reports the first difference, or a change to b itself.
func diffRowOps(b *basic) error {
	orig := copyRows(b)
	pair := func() (*basic, *basic) { return copyRows(b), copyRows(b) }
	check := func(what string, got, want *basic) error {
		if err := sameRows(got, want); err != nil {
			return fmt.Errorf("%s: %v\nin: %s", what, err, b.render(nil))
		}
		return nil
	}

	got, want := pair()
	got.normalizeDivs()
	refNormalizeDivs(want)
	if err := check("normalizeDivs", got, want); err != nil {
		return err
	}

	for col := 1; col <= b.ndim; col++ {
		expr := substitutionExpr(b, col)
		if b.substitutionBreaksDivs(col, expr) {
			continue
		}
		for _, den := range []int64{1, 2} {
			got, want := pair()
			got.substituteColumn(col, expr, den)
			refSubstituteColumn(want, col, expr, den)
			what := fmt.Sprintf("substituteColumn(%d, den %d)", col, den)
			if err := check(what, got, want); err != nil {
				return err
			}
			got.dropColumn(col)
			refDropColumn(want, col)
			if err := check(what+" then dropColumn", got, want); err != nil {
				return err
			}
		}
	}

	for i := range b.divs {
		col := b.divCol(i)
		expr := b.divs[i].Num
		if expr.At(col) != 0 || referencesLaterDiv(expr, b, i) {
			continue
		}
		got, want := pair()
		got.substituteDivColumn(col, expr)
		refSubstituteDivColumn(want, col, expr)
		what := fmt.Sprintf("substituteDivColumn(%d)", col)
		if err := check(what, got, want); err != nil {
			return err
		}
		got.dropColumn(col)
		refDropColumn(want, col)
		if err := check(what+" then dropColumn", got, want); err != nil {
			return err
		}
	}

	for col := 1; col < b.ncols(); col++ {
		if b.usesColumn(col) {
			continue
		}
		got, want := pair()
		got.dropColumn(col)
		refDropColumn(want, col)
		if err := check(fmt.Sprintf("dropColumn(%d)", col), got, want); err != nil {
			return err
		}
	}

	// The kernels rewrite a clone's slab rows in place; the clone's source
	// must keep its own.
	cl := b.clone()
	cl.normalizeDivs()
	if expr := substitutionExpr(&cl, 1); cl.ndim > 0 && !cl.substitutionBreaksDivs(1, expr) {
		cl.substituteColumn(1, expr, 1)
		cl.dropColumn(1)
	}

	if !sameExactly(b, orig) {
		return fmt.Errorf("row kernels on copies changed their source:\nnow: %s\nwas: %s", b.render(nil), orig.render(nil))
	}
	return nil
}

// randomShortBasic builds a basic over 1..4 dims with up to three divs whose
// numerators are cut short after a random column at or past their last
// non-zero entry, and full-width constraints. Every row has its own memory.
func randomShortBasic(rng *rand.Rand) *basic {
	b := &basic{ndim: 1 + rng.Intn(4)}
	coeff := func() int64 { return int64(rng.Intn(7)) - 3 }
	for i, n := 0, rng.Intn(4); i < n; i++ {
		num := NewVec(b.divCol(i))
		for j := range num {
			if rng.Intn(3) > 0 {
				num[j] = coeff()
			}
		}
		den := int64(1 + rng.Intn(4))
		if rng.Intn(3) == 0 {
			// Every coefficient a multiple of den: normalizeDivs resolves
			// the div.
			for j := range num {
				num[j] *= den
			}
		}
		last := 0
		for j := range num {
			if num[j] != 0 {
				last = j + 1
			}
		}
		num = num[:last+rng.Intn(len(num)-last+1)]
		b.divs = append(b.divs, Div{Num: append(Vec(nil), num...), Den: den})
	}
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		c := NewVec(b.ncols())
		for j := range c {
			if rng.Intn(2) == 0 {
				c[j] = coeff()
			}
		}
		b.cons = append(b.cons, Constraint{C: c, Eq: rng.Intn(4) == 0})
	}
	return b
}

func TestRowOpsMatchReferenceOnShortRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	short := 0
	for trial := 0; trial < 2000; trial++ {
		b := randomShortBasic(rng)
		for _, d := range b.divs {
			if len(d.Num) < b.ncols() {
				short++
				break
			}
		}
		if err := diffRowOps(b); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if short == 0 {
		t.Fatal("the generator produced no basic with a short row")
	}
}

// TestCheckInvariantsRejectsSharedRows hand-builds basics whose rows share
// memory, which the in-place kernels would corrupt, and checks that
// checkInvariants rejects them while accepting a slab clone.
func TestCheckInvariantsRejectsSharedRows(t *testing.T) {
	row := Vec{1, -1, 0}
	aliased := basic{ndim: 2, cons: []Constraint{{C: row}, {C: row, Eq: true}}}
	if err := aliased.checkInvariants(); err == nil || !strings.Contains(err.Error(), "share backing memory") {
		t.Errorf("two constraints on one row: checkInvariants = %v, want a shared-memory error", err)
	}
	backing := Vec{0, 1, 0, 5, -1, 0}
	overlap := basic{ndim: 2, divs: []Div{{Num: backing[0:3], Den: 2}}, cons: []Constraint{{C: backing[2:5]}}}
	if err := overlap.checkInvariants(); err == nil || !strings.Contains(err.Error(), "share backing memory") {
		t.Errorf("overlapping div and constraint rows: checkInvariants = %v, want a shared-memory error", err)
	}
	ok := basic{ndim: 2, divs: []Div{{Num: Vec{0, 1, 0}, Den: 2}}, cons: []Constraint{{C: Vec{0, 1, 0, -2}, Eq: true}, {C: Vec{4, -1, 0, 0}}}}
	if err := ok.checkInvariants(); err != nil {
		t.Fatalf("separately allocated rows: %v", err)
	}
	cl := ok.clone()
	if err := cl.checkInvariants(); err != nil {
		t.Errorf("slab clone: %v", err)
	}
}

// hugeSubstitutionBasic has dims x, y and the rows 2^40*x + y >= 0 and the
// div floor(2^40*x / 3): substituting x := 2^40*y into either wraps int64.
func hugeSubstitutionBasic() *basic {
	const m = int64(1) << 40
	return &basic{
		ndim: 2,
		divs: []Div{{Num: Vec{0, m, 0, 0}, Den: 3}},
		cons: []Constraint{{C: Vec{0, m, 1, 0}}, {C: Vec{0, 1, 0, 0}}},
	}
}

// TestSubstitutionOverflowPanics checks that the substitution kernels panic
// (as ints.MulChecked does, which parwork recovers into an error) instead of
// storing a wrapped coefficient.
func TestSubstitutionOverflowPanics(t *testing.T) {
	const m = int64(1) << 40
	expectPanic := func(name string, fn func(b *basic)) {
		t.Run(name, func(t *testing.T) {
			b := hugeSubstitutionBasic()
			defer func() {
				if recover() == nil {
					t.Errorf("no panic; the rewritten rows are %s", b.render(nil))
				}
			}()
			fn(b)
		})
	}
	expectPanic("substituteColumn", func(b *basic) {
		b.substituteColumn(1, Vec{0, 0, m, 0}, 1)
	})
	expectPanic("substituteDivColumn", func(b *basic) {
		// Substitute the div column (3) by 2^40*y in a row carrying 2^40
		// times the div.
		b.cons = append(b.cons, Constraint{C: Vec{0, 0, 0, m}})
		b.substituteDivColumn(3, Vec{0, 0, m, 0})
	})
}
