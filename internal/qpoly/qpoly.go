// Package qpoly implements quasi-polynomials: polynomials over integer
// variables whose terms may also involve floor expressions of quasi-affine
// arguments. They are the result representation of the symbolic counting
// engine (the role barvinok's quasi-polynomials play for the original
// HayStack) and the representation of the per-access stack distance.
//
// A QPoly is a sum of terms; every term has an exact rational coefficient
// and a power for each variable and each floor atom. Floor atoms are
// floor(affine/den) expressions whose affine argument may reference the
// variables and earlier atoms, which allows nested floors such as
// floor((floor(n/8)+1)/2).
package qpoly

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"haystack/internal/ints"
)

// Atom is a floor expression floor(Num·[1, vars..., atoms...] / Den) with
// Den > 0. The numerator may reference earlier atoms only. Trailing zero
// coefficients are not significant: the same atom may be materialized with
// different numerator widths depending on how many atoms the owning
// polynomial had at the time, and two atoms are the same atom when their
// denominators and their numerators up to the trailing zeros agree.
type Atom struct {
	Num []int64 // layout: [const, var_0..var_{n-1}, atom_0..atom_{k-1}]
	Den int64
}

// sameAtom reports whether a and b are the same atom.
func sameAtom(a, b Atom) bool {
	if a.Den != b.Den {
		return false
	}
	return slices.Equal(trimZeros(a.Num), trimZeros(b.Num))
}

func trimZeros(num []int64) []int64 {
	for len(num) > 0 && num[len(num)-1] == 0 {
		num = num[:len(num)-1]
	}
	return num
}

// Term is coef * prod(var_i^Pow[i]) * prod(atom_j^Pow[nvar+j]).
type Term struct {
	Coef ints.Rat
	Pow  []int
}

// QPoly is a quasi-polynomial over NVar integer variables.
//
// Polynomials are values: no operation modifies its operands, and results
// may share atom numerators and power rows with them. Shared slices are
// capacity-limited, so appending to one reallocates; a caller that writes
// into a polynomial's slices works on a Clone.
type QPoly struct {
	NVar  int
	Atoms []Atom
	Terms []Term
}

// Zero returns the zero polynomial over nvar variables.
func Zero(nvar int) QPoly { return QPoly{NVar: nvar} }

// Constant returns the constant polynomial c over nvar variables.
func Constant(nvar int, c ints.Rat) QPoly {
	if c.IsZero() {
		return Zero(nvar)
	}
	return QPoly{NVar: nvar, Terms: []Term{{Coef: c, Pow: make([]int, nvar)}}}
}

// ConstInt returns the constant integer polynomial c over nvar variables.
func ConstInt(nvar int, c int64) QPoly { return Constant(nvar, ints.RatInt(c)) }

// Var returns the polynomial consisting of the single variable v.
func Var(nvar, v int) QPoly {
	t := Term{Coef: ints.RatInt(1), Pow: make([]int, nvar)}
	t.Pow[v] = 1
	return QPoly{NVar: nvar, Terms: []Term{t}}
}

// FromAffine builds the polynomial c0 + sum coeffs[i]*var_i.
func FromAffine(nvar int, c0 int64, coeffs []int64) QPoly {
	p := ConstInt(nvar, c0)
	for i, c := range coeffs {
		if c != 0 {
			p = p.Add(Var(nvar, i).Scale(ints.RatInt(c)))
		}
	}
	return p
}

// Clone returns a deep copy of p: the atom numerators in one slab and the
// term powers in another.
func (p QPoly) Clone() QPoly { return p.clone(0) }

// clone is Clone with every power row extended by extraCols zero columns.
func (p QPoly) clone(extraCols int) QPoly {
	out := QPoly{NVar: p.NVar, Atoms: make([]Atom, len(p.Atoms)), Terms: make([]Term, len(p.Terms))}
	n := 0
	for _, a := range p.Atoms {
		n += len(a.Num)
	}
	nums := make([]int64, n)
	for i, a := range p.Atoms {
		num := nums[:len(a.Num):len(a.Num)]
		nums = nums[len(a.Num):]
		copy(num, a.Num)
		out.Atoms[i] = Atom{Num: num, Den: a.Den}
	}
	n = 0
	for _, t := range p.Terms {
		n += len(t.Pow) + extraCols
	}
	pows := make([]int, n)
	for i, t := range p.Terms {
		w := len(t.Pow) + extraCols
		pow := pows[:w:w]
		pows = pows[w:]
		copy(pow, t.Pow)
		out.Terms[i] = Term{Coef: t.Coef, Pow: pow}
	}
	return out
}

// IsZero reports whether p is the zero polynomial.
func (p QPoly) IsZero() bool { return len(p.Terms) == 0 }

// IsConstant reports whether p has no variable or atom dependence, returning
// the constant value when it does.
func (p QPoly) IsConstant() (ints.Rat, bool) {
	switch len(p.Terms) {
	case 0:
		return ints.Rat{}, true
	case 1:
		for _, e := range p.Terms[0].Pow {
			if e != 0 {
				return ints.Rat{}, false
			}
		}
		return p.Terms[0].Coef, true
	default:
		return ints.Rat{}, false
	}
}

// ncols returns the number of power columns (vars + atoms).
func (p QPoly) ncols() int { return p.NVar + len(p.Atoms) }

// mergeAtomsFrom appends to p's table the atoms of o that p lacks and fills
// colMap (o.ncols() long) with the column of p that each column of o maps
// to. Merged numerators are laid out over the columns before them and come
// from one slab.
func (p *QPoly) mergeAtomsFrom(o QPoly, colMap []int) {
	if p.NVar != o.NVar {
		panic("qpoly: mixing polynomials over different variable counts")
	}
	for v := 0; v < o.NVar; v++ {
		colMap[v] = v
	}
	if len(o.Atoms) == 0 {
		return
	}
	base := 1 + p.ncols()
	n := len(o.Atoms)
	slab := make([]int64, n*base+n*(n-1)/2)
	for i, a := range o.Atoms {
		w := 1 + p.ncols()
		num := slab[:w:w]
		for j, c := range a.Num {
			if c == 0 {
				continue
			}
			switch {
			case j <= o.NVar:
				num[j] += c
			default:
				// References o's atom j-1-o.NVar, already merged.
				num[1+colMap[j-1]] += c
			}
		}
		cand := Atom{Num: num, Den: a.Den}
		idx := -1
		for k, e := range p.Atoms {
			if sameAtom(e, cand) {
				idx = k
				break
			}
		}
		if idx < 0 {
			p.Atoms = append(p.Atoms, cand)
			idx = len(p.Atoms) - 1
			slab = slab[w:]
		} else {
			clear(num)
		}
		colMap[o.NVar+i] = p.NVar + idx
	}
}

// canonical reports whether an atom table is in canonical form (see
// canonicalTable): no atom is constant, none shares a factor of its
// non-constant coefficients with its denominator, and no atom repeats an
// earlier one.
func canonical(atoms []Atom) bool {
	for i, a := range atoms {
		g, nonconst := a.Den, false
		for _, c := range a.Num[min(1, len(a.Num)):] {
			if c != 0 {
				g = ints.GCD(g, c)
				nonconst = true
			}
		}
		if !nonconst || g > 1 {
			return false
		}
		for _, e := range atoms[:i] {
			if sameAtom(e, a) {
				return false
			}
		}
	}
	return true
}

// canonTable is the canonical form of an atom table: the canonical atoms in
// order of first emission and, per original atom, its canonical index, or
// -1 and its constant value. A nil amap stands for the identity: the table
// is canonical already.
type canonTable struct {
	atoms []Atom
	amap  []int
	cval  []int64
}

// canonicalOf returns the canonical form of an atom table, without
// allocating when the table is canonical already.
func canonicalOf(nvar int, atoms []Atom) canonTable {
	if canonical(atoms) {
		return canonTable{atoms: atoms}
	}
	return canonicalTable(nvar, atoms)
}

// atomAt returns the canonical index of original atom i, or -1 and its
// constant value.
func (ct canonTable) atomAt(i int) (int, int64) {
	if ct.amap == nil {
		return i, 0
	}
	return ct.amap[i], ct.cval[i]
}

// canonicalTable computes the canonical form of an atom table: atoms whose
// argument is constant (possibly through references to other constant
// atoms) are folded into plain numbers, and atom numerators whose
// non-constant coefficients share a factor with the denominator are reduced
// (floor((8i-16)/64) becomes floor((i-2)/8), by the nested-floor identity
// floor((g*u+c)/(g*d)) == floor((u+floor(c/g))/d)). Identical atoms are
// merged. Without this pass, equal quasi-polynomials built along different
// summation paths keep distinct atom spellings, which defeats the piecewise
// layer's structural merging.
func canonicalTable(nvar int, atoms []Atom) canonTable {
	n := len(atoms)
	ct := canonTable{amap: make([]int, n), cval: make([]int64, n)}
	slab := make([]int64, n*(1+nvar)+n*(n-1)/2)
	for i, a := range atoms {
		// Rewrite the numerator over [const, vars, ct.atoms...]: references
		// to folded atoms move into the constant term.
		w := 1 + nvar + len(ct.atoms)
		num := slab[:w:w]
		clear(num)
		for j := 0; j < len(a.Num) && j <= nvar; j++ {
			num[j] = a.Num[j]
		}
		for j := 1 + nvar; j < len(a.Num); j++ {
			c := a.Num[j]
			if c == 0 {
				continue
			}
			if oi := j - 1 - nvar; ct.amap[oi] < 0 {
				num[0] += c * ct.cval[oi]
			} else {
				num[1+nvar+ct.amap[oi]] += c
			}
		}
		den := a.Den
		// gcd-reduce the non-constant coefficients against the denominator.
		g := den
		for j := 1; j < len(num); j++ {
			g = ints.GCD(g, num[j])
		}
		if g > 1 {
			for j := 1; j < len(num); j++ {
				num[j] /= g
			}
			num[0] = ints.FloorDiv(num[0], g)
			den /= g
		}
		nonconst := false
		for j := 1; j < len(num); j++ {
			if num[j] != 0 {
				nonconst = true
				break
			}
		}
		if !nonconst {
			ct.amap[i] = -1
			ct.cval[i] = ints.FloorDiv(num[0], den)
			continue
		}
		// A den of 1 after reduction (floor(e/1) == e) is kept as a literal
		// atom: the table remap below cannot express powers of an affine
		// form, and Eval and the structural key remain exact either way.
		// Dedupe against atoms already emitted.
		cand := Atom{Num: num, Den: den}
		idx := -1
		for k, e := range ct.atoms {
			if sameAtom(e, cand) {
				idx = k
				break
			}
		}
		if idx < 0 {
			ct.atoms = append(ct.atoms, cand)
			idx = len(ct.atoms) - 1
			slab = slab[w:]
		}
		ct.amap[i] = idx
	}
	return ct
}

// normalize brings p into canonical form: a canonical atom table, like terms
// combined in order of first appearance, zero terms and unused atoms dropped.
func (p QPoly) normalize() QPoly {
	s := newTermSink(p.NVar, p.Atoms, len(p.Terms))
	for _, t := range p.Terms {
		copy(s.row(), t.Pow)
		s.commit(t.Coef)
	}
	return s.result()
}

func (p QPoly) dropUnusedAtoms() QPoly {
	var buf [64]bool
	used := buf[:0]
	if len(p.Atoms) <= len(buf) {
		used = buf[:len(p.Atoms)]
	} else {
		used = make([]bool, len(p.Atoms))
	}
	for _, t := range p.Terms {
		for j := p.NVar; j < len(t.Pow); j++ {
			if t.Pow[j] != 0 {
				used[j-p.NVar] = true
			}
		}
	}
	// Atoms referenced by other used atoms stay as well; references point
	// to earlier atoms only.
	all := true
	for i := len(p.Atoms) - 1; i >= 0; i-- {
		if !used[i] {
			all = false
			continue
		}
		a := p.Atoms[i]
		for j := 1 + p.NVar; j < len(a.Num); j++ {
			if a.Num[j] != 0 {
				used[j-1-p.NVar] = true
			}
		}
	}
	if all {
		return p
	}
	// Rebuild with the used atoms only.
	var idxBuf [64]int
	newIdx := idxBuf[:0]
	if len(p.Atoms) <= len(idxBuf) {
		newIdx = idxBuf[:len(p.Atoms)]
	} else {
		newIdx = make([]int, len(p.Atoms))
	}
	n := 0
	for _, u := range used {
		if u {
			n++
		}
	}
	out := QPoly{NVar: p.NVar}
	if n > 0 {
		out.Atoms = make([]Atom, 0, n)
	}
	slab := make([]int64, n*(1+p.NVar)+n*(n-1)/2)
	for i, a := range p.Atoms {
		if !used[i] {
			newIdx[i] = -1
			continue
		}
		w := 1 + p.NVar + len(out.Atoms)
		num := slab[:w:w]
		slab = slab[w:]
		copy(num, a.Num[:min(len(a.Num), 1+p.NVar)])
		for j := 1 + p.NVar; j < len(a.Num); j++ {
			if a.Num[j] != 0 {
				num[1+p.NVar+newIdx[j-1-p.NVar]] += a.Num[j]
			}
		}
		out.Atoms = append(out.Atoms, Atom{Num: num, Den: a.Den})
		newIdx[i] = len(out.Atoms) - 1
	}
	if len(p.Terms) == 0 {
		return out
	}
	ncols := out.ncols()
	pows := make([]int, len(p.Terms)*ncols)
	out.Terms = make([]Term, len(p.Terms))
	for i, t := range p.Terms {
		pw := pows[i*ncols : (i+1)*ncols : (i+1)*ncols]
		copy(pw, t.Pow[:p.NVar])
		for j := p.NVar; j < len(t.Pow); j++ {
			if t.Pow[j] != 0 {
				pw[out.NVar+newIdx[j-p.NVar]] = t.Pow[j]
			}
		}
		out.Terms[i] = Term{Coef: t.Coef, Pow: pw}
	}
	return out
}

// colMapBuf returns a column map of n entries, in buf when it fits.
func colMapBuf(buf []int, n int) []int {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]int, n)
}

// mergedAtoms returns p's atom table (shared) followed by the atoms of o
// that p lacks, and fills colMap with the column map of o into it.
func (p QPoly) mergedAtoms(o QPoly, colMap []int) []Atom {
	out := QPoly{NVar: p.NVar, Atoms: make([]Atom, len(p.Atoms), len(p.Atoms)+len(o.Atoms))}
	copy(out.Atoms, p.Atoms)
	out.mergeAtomsFrom(o, colMap)
	return out.Atoms[:len(out.Atoms):len(out.Atoms)]
}

// Add returns p + o.
func (p QPoly) Add(o QPoly) QPoly { return p.addScaled(o, ints.RatInt(1)) }

// Sub returns p - o.
func (p QPoly) Sub(o QPoly) QPoly { return p.addScaled(o, ints.RatInt(-1)) }

// addScaled returns p + c*o (c nonzero), the terms of p first.
func (p QPoly) addScaled(o QPoly, c ints.Rat) QPoly {
	var buf [32]int
	colMap := colMapBuf(buf[:], o.ncols())
	atoms := p.mergedAtoms(o, colMap)
	s := newTermSink(p.NVar, atoms, len(p.Terms)+len(o.Terms))
	for _, t := range p.Terms {
		copy(s.row(), t.Pow)
		s.commit(t.Coef)
	}
	one := c == ints.RatInt(1)
	for _, t := range o.Terms {
		row := s.row()
		for j, e := range t.Pow {
			if e != 0 {
				row[colMap[j]] = e
			}
		}
		coef := t.Coef
		if !one {
			coef = coef.Mul(c)
		}
		s.commit(coef)
	}
	return s.result()
}

// Scale returns c * p.
func (p QPoly) Scale(c ints.Rat) QPoly {
	if c.IsZero() {
		return Zero(p.NVar)
	}
	out := QPoly{NVar: p.NVar, Atoms: p.Atoms[:len(p.Atoms):len(p.Atoms)], Terms: make([]Term, len(p.Terms))}
	for i, t := range p.Terms {
		out.Terms[i] = Term{Coef: t.Coef.Mul(c), Pow: t.Pow[:len(t.Pow):len(t.Pow)]}
	}
	return out
}

// Mul returns p * o.
func (p QPoly) Mul(o QPoly) QPoly {
	var buf [32]int
	colMap := colMapBuf(buf[:], o.ncols())
	atoms := p.mergedAtoms(o, colMap)
	s := newTermSink(p.NVar, atoms, min(len(p.Terms)*len(o.Terms), maxMulHint))
	for _, tp := range p.Terms {
		for _, to := range o.Terms {
			row := s.row()
			copy(row, tp.Pow)
			for j, e := range to.Pow {
				if e != 0 {
					row[colMap[j]] += e
				}
			}
			s.commit(tp.Coef.Mul(to.Coef))
		}
	}
	return s.result()
}

// maxMulHint caps the groups a product's term table is sized for up front.
const maxMulHint = 1024

// Pow returns p raised to the k-th power (k >= 0).
func (p QPoly) Pow(k int) QPoly { return p.powers(k)[k] }

// powers returns p^0 .. p^n, each the product of the one before and p.
func (p QPoly) powers(n int) []QPoly {
	out := make([]QPoly, n+1)
	out[0] = ConstInt(p.NVar, 1)
	for e := 1; e <= n; e++ {
		out[e] = out[e-1].Mul(p)
	}
	return out
}

// Degree returns the total degree of p, counting every atom as degree one.
func (p QPoly) Degree() int {
	deg := 0
	for _, t := range p.Terms {
		d := 0
		for _, e := range t.Pow {
			d += e
		}
		if d > deg {
			deg = d
		}
	}
	return deg
}

// atomDependsOnVar reports, per atom, whether its (transitive) argument
// references variable v.
func (p QPoly) atomDependsOnVar(v int) []bool {
	dep := make([]bool, len(p.Atoms))
	for i, a := range p.Atoms {
		if 1+v < len(a.Num) && a.Num[1+v] != 0 {
			dep[i] = true
			continue
		}
		for j := 1 + p.NVar; j < len(a.Num); j++ {
			if a.Num[j] != 0 && dep[j-1-p.NVar] {
				dep[i] = true
				break
			}
		}
	}
	return dep
}

// UsesVar reports whether p references variable v directly or through an
// atom.
func (p QPoly) UsesVar(v int) bool {
	dep := p.atomDependsOnVar(v)
	for _, t := range p.Terms {
		if t.Pow[v] != 0 {
			return true
		}
		for j := p.NVar; j < len(t.Pow); j++ {
			if t.Pow[j] != 0 && dep[j-p.NVar] {
				return true
			}
		}
	}
	return false
}

// Eval evaluates p at the given integer point (one value per variable) and
// returns the exact rational value. Like every arithmetic of the package it
// is overflow-checked and panics rather than return a wrapped value.
func (p QPoly) Eval(point []int64) ints.Rat {
	return p.evalInto(point, make([]int64, len(p.Atoms)))
}

// evalInto is Eval with the atom values written into atomVals (at least
// len(p.Atoms) long), so that a caller evaluating many points allocates
// nothing.
func (p QPoly) evalInto(point, atomVals []int64) ints.Rat {
	if len(point) != p.NVar {
		panic("qpoly: evaluation point arity mismatch")
	}
	for i, a := range p.Atoms {
		var s int64
		for j, c := range a.Num {
			if c == 0 {
				continue
			}
			switch {
			case j == 0:
				s = ints.AddChecked(s, c)
			case j <= p.NVar:
				s = ints.AddChecked(s, ints.MulChecked(c, point[j-1]))
			default:
				s = ints.AddChecked(s, ints.MulChecked(c, atomVals[j-1-p.NVar]))
			}
		}
		atomVals[i] = ints.FloorDiv(s, a.Den)
	}
	total := ints.Rat{}
	for _, t := range p.Terms {
		v := t.Coef
		for j, e := range t.Pow {
			var base int64
			if j < p.NVar {
				base = point[j]
			} else {
				base = atomVals[j-p.NVar]
			}
			for k := 0; k < e; k++ {
				v = v.Mul(ints.RatInt(base))
			}
		}
		total = total.Add(v)
	}
	return total
}

// EvalInt evaluates p and panics if the result is not an integer (counting
// results always are).
func (p QPoly) EvalInt(point []int64) int64 { return p.Eval(point).Int() }

// SubstituteVar substitutes variable v by the quasi-polynomial expr (over
// the same variable set). Substitution requires that no atom of p depends on
// v (callers split such atoms away first); ok is false otherwise.
func (p QPoly) SubstituteVar(v int, expr QPoly) (QPoly, bool) {
	for _, d := range p.atomDependsOnVar(v) {
		if d {
			return QPoly{}, false
		}
	}
	return p.substitute(p.Atoms, v, expr), true
}

// String renders the polynomial with variables named v0..v{n-1}.
func (p QPoly) String() string { return p.StringWithNames(nil) }

// StringWithNames renders the polynomial using the provided variable names.
func (p QPoly) StringWithNames(names []string) string {
	if len(p.Terms) == 0 {
		return "0"
	}
	varName := func(i int) string {
		if i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("v%d", i)
	}
	var atomStr func(i int) string
	atomStr = func(i int) string {
		a := p.Atoms[i]
		var parts []string
		for j, c := range a.Num {
			if c == 0 {
				continue
			}
			switch {
			case j == 0:
				parts = append(parts, fmt.Sprintf("%d", c))
			case j <= p.NVar:
				parts = append(parts, fmt.Sprintf("%d*%s", c, varName(j-1)))
			default:
				parts = append(parts, fmt.Sprintf("%d*%s", c, atomStr(j-1-p.NVar)))
			}
		}
		if len(parts) == 0 {
			parts = []string{"0"}
		}
		return fmt.Sprintf("floor((%s)/%d)", strings.Join(parts, "+"), a.Den)
	}
	var termStrs []string
	for _, t := range p.Terms {
		var factors []string
		if t.Coef.Cmp(ints.RatInt(1)) != 0 || allZero(t.Pow) {
			factors = append(factors, t.Coef.String())
		}
		for j, e := range t.Pow {
			if e == 0 {
				continue
			}
			var name string
			if j < p.NVar {
				name = varName(j)
			} else {
				name = atomStr(j - p.NVar)
			}
			if e == 1 {
				factors = append(factors, name)
			} else {
				factors = append(factors, fmt.Sprintf("%s^%d", name, e))
			}
		}
		termStrs = append(termStrs, strings.Join(factors, "*"))
	}
	sort.Strings(termStrs)
	return strings.Join(termStrs, " + ")
}

func allZero(p []int) bool {
	for _, e := range p {
		if e != 0 {
			return false
		}
	}
	return true
}
