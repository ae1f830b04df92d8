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
	"sort"
	"strconv"
	"strings"

	"haystack/internal/ints"
)

// Atom is a floor expression floor(Num·[1, vars..., atoms...] / Den) with
// Den > 0. The numerator may reference earlier atoms only.
type Atom struct {
	Num []int64 // layout: [const, var_0..var_{n-1}, atom_0..atom_{k-1}]
	Den int64
}

func (a Atom) clone() Atom { return Atom{Num: append([]int64(nil), a.Num...), Den: a.Den} }

func (a Atom) key() string {
	// Trailing zero coefficients are not significant: the same atom may be
	// materialized with different numerator widths depending on how many
	// atoms the owning polynomial had at the time.
	num := a.Num
	for len(num) > 0 && num[len(num)-1] == 0 {
		num = num[:len(num)-1]
	}
	buf := make([]byte, 0, 8*len(num)+8)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, a.Den, 10)
	buf = append(buf, ':')
	for _, c := range num {
		buf = strconv.AppendInt(buf, c, 10)
		buf = append(buf, ',')
	}
	return string(buf)
}

// Term is coef * prod(var_i^Pow[i]) * prod(atom_j^Pow[nvar+j]).
type Term struct {
	Coef ints.Rat
	Pow  []int
}

func (t Term) clone() Term { return Term{Coef: t.Coef, Pow: append([]int(nil), t.Pow...)} }

// QPoly is a quasi-polynomial over NVar integer variables.
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

// Clone returns a deep copy of p.
func (p QPoly) Clone() QPoly {
	out := QPoly{NVar: p.NVar}
	out.Atoms = make([]Atom, len(p.Atoms))
	for i, a := range p.Atoms {
		out.Atoms[i] = a.clone()
	}
	out.Terms = make([]Term, len(p.Terms))
	for i, t := range p.Terms {
		out.Terms[i] = t.clone()
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

// atomIndex adds (or finds) an atom in p and returns its index. The atom's
// numerator must be expressed over p's columns (it is padded if shorter).
func (p *QPoly) atomIndex(a Atom) int {
	want := a.key()
	for i, e := range p.Atoms {
		if e.key() == want {
			return i
		}
	}
	p.Atoms = append(p.Atoms, a.clone())
	// Pad existing terms with a zero power for the new atom.
	for i := range p.Terms {
		p.Terms[i].Pow = append(p.Terms[i].Pow, 0)
	}
	return len(p.Atoms) - 1
}

// mergeAtomsFrom imports the atoms of o into p and returns a mapping from
// o's power columns to p's power columns.
func (p *QPoly) mergeAtomsFrom(o QPoly) []int {
	if p.NVar != o.NVar {
		panic("qpoly: mixing polynomials over different variable counts")
	}
	colMap := make([]int, o.ncols())
	for v := 0; v < o.NVar; v++ {
		colMap[v] = v
	}
	for i, a := range o.Atoms {
		// Remap the atom numerator: it is laid out as [const, vars, o-atoms].
		num := make([]int64, 1+p.ncols())
		for j, c := range a.Num {
			if c == 0 {
				continue
			}
			switch {
			case j == 0:
				num[0] += c
			case j <= o.NVar:
				num[j] += c
			default:
				// references o's atom j-1-o.NVar, already imported.
				col := colMap[j-1]
				num[1+col] += c
			}
		}
		idx := p.atomIndex(Atom{Num: num, Den: a.Den})
		colMap[o.NVar+i] = p.NVar + idx
	}
	return colMap
}

// canonicalizeAtoms rewrites the atom table into a canonical form: atoms
// whose argument is constant (possibly through references to other constant
// atoms) are folded into plain numbers, and atom numerators whose
// non-constant coefficients share a factor with the denominator are reduced
// (floor((8i-16)/64) becomes floor((i-2)/8), by the nested-floor identity
// floor((g*u+c)/(g*d)) == floor((u+floor(c/g))/d)). Identical atoms are
// merged. Without this pass, equal quasi-polynomials built along different
// summation paths keep distinct atom spellings, which defeats the piecewise
// layer's structural merging.
func (p QPoly) canonicalizeAtoms() QPoly {
	if len(p.Atoms) == 0 {
		return p
	}
	out := QPoly{NVar: p.NVar}
	// For each old atom: either a constant value or an index into out.Atoms.
	isConst := make([]bool, len(p.Atoms))
	constVal := make([]int64, len(p.Atoms))
	amap := make([]int, len(p.Atoms))
	changed := false
	for i, a := range p.Atoms {
		// Rewrite the numerator over [const, vars, out.Atoms...]: references
		// to folded atoms move into the constant term.
		num := make([]int64, 1+p.NVar+len(out.Atoms))
		for j := 0; j < len(a.Num) && j <= p.NVar; j++ {
			num[j] = a.Num[j]
		}
		for j := 1 + p.NVar; j < len(a.Num); j++ {
			c := a.Num[j]
			if c == 0 {
				continue
			}
			oi := j - 1 - p.NVar
			if isConst[oi] {
				num[0] += c * constVal[oi]
				changed = true
			} else {
				num[1+p.NVar+amap[oi]] += c
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
			changed = true
		}
		nonconst := false
		for j := 1; j < len(num); j++ {
			if num[j] != 0 {
				nonconst = true
				break
			}
		}
		if !nonconst {
			isConst[i] = true
			constVal[i] = ints.FloorDiv(num[0], den)
			changed = true
			continue
		}
		// A den of 1 after reduction (floor(e/1) == e) is kept as a literal
		// atom: the table remap below cannot express powers of an affine
		// form, and Eval and the structural key remain exact either way.
		// Dedupe against atoms already emitted.
		cand := Atom{Num: num, Den: den}
		idx := -1
		for k, e := range out.Atoms {
			if e.Den == cand.Den && e.key() == cand.key() {
				idx = k
				break
			}
		}
		if idx < 0 {
			out.Atoms = append(out.Atoms, cand)
			idx = len(out.Atoms) - 1
		} else {
			changed = true
		}
		amap[i] = idx
	}
	if !changed {
		return p
	}
	ncols := out.ncols()
	for _, t := range p.Terms {
		coef := t.Coef
		pow := make([]int, ncols)
		for j, e := range t.Pow {
			if e == 0 {
				continue
			}
			if j < p.NVar {
				pow[j] = e
				continue
			}
			oi := j - p.NVar
			if isConst[oi] {
				for k := 0; k < e; k++ {
					coef = coef.Mul(ints.RatInt(constVal[oi]))
				}
			} else {
				pow[p.NVar+amap[oi]] += e
			}
		}
		out.Terms = append(out.Terms, Term{Coef: coef, Pow: pow})
	}
	return out
}

func (p QPoly) normalize() QPoly {
	p = p.canonicalizeAtoms()
	// Combine terms with identical powers, drop zero terms and unused atoms.
	powKey := func(pow []int) string {
		for len(pow) > 0 && pow[len(pow)-1] == 0 {
			pow = pow[:len(pow)-1]
		}
		buf := make([]byte, 0, 4*len(pow))
		for _, e := range pow {
			buf = strconv.AppendInt(buf, int64(e), 10)
			buf = append(buf, ',')
		}
		return string(buf)
	}
	byPow := map[string]ints.Rat{}
	var order []string
	pows := map[string][]int{}
	for _, t := range p.Terms {
		k := powKey(t.Pow)
		if _, ok := byPow[k]; !ok {
			order = append(order, k)
			pows[k] = append([]int(nil), t.Pow...)
		}
		byPow[k] = byPow[k].Add(t.Coef)
	}
	out := QPoly{NVar: p.NVar, Atoms: append([]Atom(nil), p.Atoms...)}
	for _, k := range order {
		if byPow[k].IsZero() {
			continue
		}
		pw := pows[k]
		for len(pw) < out.ncols() {
			pw = append(pw, 0)
		}
		out.Terms = append(out.Terms, Term{Coef: byPow[k], Pow: pw})
	}
	return out.dropUnusedAtoms()
}

func (p QPoly) dropUnusedAtoms() QPoly {
	used := make([]bool, len(p.Atoms))
	for _, t := range p.Terms {
		for j := p.NVar; j < len(t.Pow); j++ {
			if t.Pow[j] != 0 {
				used[j-p.NVar] = true
			}
		}
	}
	// Atoms referenced by other used atoms stay as well.
	changed := true
	for changed {
		changed = false
		for i, a := range p.Atoms {
			if !used[i] {
				continue
			}
			for j := 1 + p.NVar; j < len(a.Num); j++ {
				if a.Num[j] != 0 && !used[j-1-p.NVar] {
					used[j-1-p.NVar] = true
					changed = true
				}
			}
		}
	}
	all := true
	for _, u := range used {
		if !u {
			all = false
			break
		}
	}
	if all {
		return p
	}
	// Rebuild with the used atoms only.
	newIdx := make([]int, len(p.Atoms))
	out := QPoly{NVar: p.NVar}
	for i, a := range p.Atoms {
		if !used[i] {
			newIdx[i] = -1
			continue
		}
		num := make([]int64, 1+p.NVar+len(out.Atoms))
		copy(num, a.Num[:min(len(a.Num), 1+p.NVar)])
		for j := 1 + p.NVar; j < len(a.Num); j++ {
			if a.Num[j] != 0 {
				num[1+p.NVar+newIdx[j-1-p.NVar]] += a.Num[j]
			}
		}
		out.Atoms = append(out.Atoms, Atom{Num: num, Den: a.Den})
		newIdx[i] = len(out.Atoms) - 1
	}
	for _, t := range p.Terms {
		pw := make([]int, out.ncols())
		copy(pw, t.Pow[:p.NVar])
		for j := p.NVar; j < len(t.Pow); j++ {
			if t.Pow[j] != 0 {
				pw[out.NVar+newIdx[j-p.NVar]] = t.Pow[j]
			}
		}
		out.Terms = append(out.Terms, Term{Coef: t.Coef, Pow: pw})
	}
	return out
}

// Add returns p + o.
func (p QPoly) Add(o QPoly) QPoly {
	out := p.Clone()
	colMap := out.mergeAtomsFrom(o)
	for _, t := range o.Terms {
		pw := make([]int, out.ncols())
		for j, e := range t.Pow {
			if e != 0 {
				pw[colMap[j]] = e
			}
		}
		out.Terms = append(out.Terms, Term{Coef: t.Coef, Pow: pw})
	}
	return out.normalize()
}

// Sub returns p - o.
func (p QPoly) Sub(o QPoly) QPoly { return p.Add(o.Scale(ints.RatInt(-1))) }

// Scale returns c * p.
func (p QPoly) Scale(c ints.Rat) QPoly {
	if c.IsZero() {
		return Zero(p.NVar)
	}
	out := p.Clone()
	for i := range out.Terms {
		out.Terms[i].Coef = out.Terms[i].Coef.Mul(c)
	}
	return out
}

// Mul returns p * o.
func (p QPoly) Mul(o QPoly) QPoly {
	out := Zero(p.NVar)
	out.Atoms = append([]Atom(nil), p.Clone().Atoms...)
	colMapP := make([]int, p.ncols())
	for i := range colMapP {
		colMapP[i] = i
	}
	colMapO := out.mergeAtomsFrom(o)
	for _, tp := range p.Terms {
		for _, to := range o.Terms {
			pw := make([]int, out.ncols())
			for j, e := range tp.Pow {
				pw[colMapP[j]] += e
			}
			for j, e := range to.Pow {
				if e != 0 {
					pw[colMapO[j]] += e
				}
			}
			out.Terms = append(out.Terms, Term{Coef: tp.Coef.Mul(to.Coef), Pow: pw})
		}
	}
	return out.normalize()
}

// Pow returns p raised to the k-th power (k >= 0).
func (p QPoly) Pow(k int) QPoly {
	out := ConstInt(p.NVar, 1)
	for i := 0; i < k; i++ {
		out = out.Mul(p)
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
	dep := p.atomDependsOnVar(v)
	for i := range dep {
		if dep[i] {
			return QPoly{}, false
		}
	}
	out := Zero(p.NVar)
	for _, t := range p.Terms {
		factor := ConstInt(p.NVar, 1).Scale(t.Coef)
		for j, e := range t.Pow {
			if e == 0 {
				continue
			}
			var base QPoly
			switch {
			case j == v:
				base = expr
			case j < p.NVar:
				base = Var(p.NVar, j)
			default:
				single := Zero(p.NVar)
				single.Atoms = append([]Atom(nil), p.Atoms...)
				pw := make([]int, single.ncols())
				pw[j] = 1
				single.Terms = []Term{{Coef: ints.RatInt(1), Pow: pw}}
				base = single
			}
			factor = factor.Mul(base.Pow(e))
		}
		out = out.Add(factor)
	}
	return out, true
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
