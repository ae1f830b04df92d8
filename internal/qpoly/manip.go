package qpoly

import (
	"haystack/internal/ints"
)

// WithAtom returns p extended with the floor atom floor(num/den), where num
// is laid out over [const, vars..., existing atoms of p...], together with
// the atom's index. An identical existing atom is reused.
func (p QPoly) WithAtom(num []int64, den int64) (QPoly, int) {
	padded := make([]int64, 1+p.ncols())
	copy(padded, num)
	a := Atom{Num: padded, Den: den}
	for i, e := range p.Atoms {
		if sameAtom(e, a) {
			return p.Clone(), i
		}
	}
	out := p.clone(1)
	out.Atoms = append(out.Atoms, a)
	return out, len(out.Atoms) - 1
}

// AtomPoly returns the polynomial consisting of the single atom with the
// given index (sharing p's atom table).
func (p QPoly) AtomPoly(idx int) QPoly {
	out := QPoly{NVar: p.NVar, Atoms: p.Atoms[:len(p.Atoms):len(p.Atoms)]}
	pw := make([]int, out.ncols())
	pw[out.NVar+idx] = 1
	out.Terms = []Term{{Coef: ints.RatInt(1), Pow: pw}}
	return out
}

// foldConstants multiplies coef by the values of the constant atoms among
// the atom columns of pow (column skip excepted), in column order.
func (ct canonTable) foldConstants(coef ints.Rat, nvar int, pow []int, skip int) ints.Rat {
	for j := nvar; j < len(pow); j++ {
		if a, c := ct.atomAt(j - nvar); pow[j] != 0 && a < 0 && j != skip {
			for k := 0; k < pow[j]; k++ {
				coef = coef.Mul(ints.RatInt(c))
			}
		}
	}
	return coef
}

// CoefficientsOfVar writes p as sum_k coeff_k * v^k where no coeff_k
// references v directly. It requires that no atom of p depends on v (split
// such atoms first); ok is false otherwise. The returned slice is indexed by
// k and has length degree+1.
//
// Every coeff_k is the fold, in term order, of the terms of p with v^k and
// v dropped, as a chain of Adds of single terms over p's table would build
// it: such an Add appends the atoms the term uses (with what they
// reference) that the sum lacks, in table order.
func (p QPoly) CoefficientsOfVar(v int) (coeffs []QPoly, ok bool) {
	for _, d := range p.atomDependsOnVar(v) {
		if d {
			return nil, false
		}
	}
	deg := 0
	for _, t := range p.Terms {
		if t.Pow[v] > deg {
			deg = t.Pow[v]
		}
	}
	ct := canonicalOf(p.NVar, p.Atoms)
	folds := make([]foldSum, deg+1)
	want := make([]bool, len(ct.atoms))
	for _, t := range p.Terms {
		coef := ct.foldConstants(t.Coef, p.NVar, t.Pow, -1)
		if coef.IsZero() {
			continue
		}
		f := &folds[t.Pow[v]]
		if f.next == 0 {
			*f = newFoldSum(p.NVar, ct.atoms, len(p.Terms))
		}
		for j := p.NVar; j < len(t.Pow); j++ {
			if a, _ := ct.atomAt(j - p.NVar); t.Pow[j] != 0 && a >= 0 {
				want[a] = true
			}
		}
		f.mergeClosures(want)
		row := f.tt.next()
		for j, e := range t.Pow {
			switch {
			case e == 0 || j == v:
			case j < p.NVar:
				row[j] = e
			default:
				if a, _ := ct.atomAt(j - p.NVar); a >= 0 {
					row[p.NVar+a] += e
				}
			}
		}
		f.add(coef)
		f.endSummand()
	}
	coeffs = make([]QPoly, deg+1)
	for k := range folds {
		if folds[k].next == 0 {
			coeffs[k] = Zero(p.NVar)
		} else {
			coeffs[k] = folds[k].result()
		}
	}
	return coeffs, true
}

// SubstituteAtom replaces atom idx by the polynomial expr (over the same
// variables). Other atoms must not reference atom idx; ok is false
// otherwise.
func (p QPoly) SubstituteAtom(idx int, expr QPoly) (QPoly, bool) {
	for j, a := range p.Atoms {
		if j == idx {
			continue
		}
		if 1+p.NVar+idx < len(a.Num) && a.Num[1+p.NVar+idx] != 0 {
			return QPoly{}, false
		}
	}
	return p.substitute(p.Atoms, p.NVar+idx, expr), true
}

// SubstitutePlainVar replaces only the explicit occurrences of variable v in
// the terms of p by expr, leaving atom arguments untouched. It is used by
// the counting engine when rewriting a dimension as an arithmetic
// progression: explicit occurrences and occurrences inside floor atoms are
// rewritten in two separate passes.
func (p QPoly) SubstitutePlainVar(v int, expr QPoly) QPoly { return p.substitute(p.Atoms, v, expr) }

// BindVar fixes variable v to a constant value everywhere, including inside
// floor atom arguments. Atoms whose argument becomes constant are folded
// into plain numbers.
func (p QPoly) BindVar(v int, value int64) QPoly {
	atoms := p.Atoms
	for _, a := range p.Atoms {
		if 1+v < len(a.Num) && a.Num[1+v] != 0 {
			atoms = p.Clone().Atoms
			for _, a := range atoms {
				if num := a.Num; 1+v < len(num) && num[1+v] != 0 {
					num[0] += num[1+v] * value
					num[1+v] = 0
				}
			}
			break
		}
	}
	return p.substitute(atoms, v, ConstInt(p.NVar, value))
}

// substitute is the substitution kernel: it replaces column col of p's
// terms (a variable or an atom) by expr, the atom columns of the terms
// referring to atoms. It returns the sum, in term order, of the products
// coef * prod_j base_j^e_j over the columns of every term, where base_col is
// expr, a variable column stands for itself and an atom column for its
// atom, folded to a constant when its argument is one. The sum has the atom
// order and term order of the chain of Muls and Adds that builds every such
// product and adds it to the running sum: a product's table lists, column
// by column, the atoms of each factor (an atom with what it references, in
// table order; the atoms of expr^e in their order), and the sum appends
// those it lacks (see foldSum).
func (p QPoly) substitute(atoms []Atom, col int, expr QPoly) QPoly {
	ct := canonicalOf(p.NVar, atoms)
	table := QPoly{NVar: p.NVar, Atoms: ct.atoms[:len(ct.atoms):len(ct.atoms)]}
	// Every power of expr once, with the map of its columns into the fold's
	// table.
	maxE := 0
	for _, t := range p.Terms {
		if col < len(t.Pow) && t.Pow[col] > maxE {
			maxE = t.Pow[col]
		}
	}
	powers := expr.powers(maxE)
	powCols := make([][]int, maxE+1)
	for e := 1; e <= maxE; e++ {
		powCols[e] = make([]int, powers[e].ncols())
		table.mergeAtomsFrom(powers[e], powCols[e])
	}
	f := newFoldSum(p.NVar, table.Atoms, len(p.Terms))
	base := make([]int, table.ncols())
	want := make([]bool, len(table.Atoms))
	for _, t := range p.Terms {
		e := 0
		if col < len(t.Pow) {
			e = t.Pow[col]
		}
		coef := ct.foldConstants(t.Coef, p.NVar, t.Pow, col)
		if coef.IsZero() || powers[e].IsZero() {
			continue
		}
		clear(base)
		for j, ej := range t.Pow {
			switch {
			case j == col:
				for k := range powers[e].Atoms {
					f.mergeAtom(powCols[e][p.NVar+k] - p.NVar)
				}
			case ej == 0:
			case j < p.NVar:
				base[j] = ej
			default:
				if a, _ := ct.atomAt(j - p.NVar); a >= 0 {
					want[a] = true
					f.mergeClosures(want)
					base[p.NVar+a] += ej
				}
			}
		}
		for _, x := range powers[e].Terms {
			row := f.tt.next()
			copy(row, base)
			for j, ex := range x.Pow {
				if ex != 0 {
					row[powCols[e][j]] += ex
				}
			}
			f.add(coef.Mul(x.Coef))
		}
		f.endSummand()
	}
	return f.result()
}

// BindLeadingVars fixes the first len(vals) variables to constants and
// renumbers the remaining variables down, returning a polynomial over
// NVar-len(vals) variables. It is the single-pass specialization of
// BindVar+MapVars for instantiating a parametric polynomial at a parameter
// point: atom numerators fold the bound variables into their constant term,
// atoms that become constant fold into plain numbers, and term coefficients
// absorb the bound variable powers.
func (p QPoly) BindLeadingVars(vals []int64) QPoly {
	n := len(vals)
	if n == 0 {
		return p
	}
	if n > p.NVar {
		panic("qpoly: binding more variables than the polynomial has")
	}
	newNVar := p.NVar - n
	// Rewrite atoms: fold bound vars into the constant, shift the remaining
	// variable columns down. Atom columns keep their relative positions.
	atoms := make([]Atom, len(p.Atoms))
	constVal := make(map[int]int64)
	for i, a := range p.Atoms {
		num := make([]int64, 0, len(a.Num))
		c0 := int64(0)
		if len(a.Num) > 0 {
			c0 = a.Num[0]
		}
		for v := 0; v < n && 1+v < len(a.Num); v++ {
			c0 += a.Num[1+v] * vals[v]
		}
		num = append(num, c0)
		for j := 1 + n; j < len(a.Num); j++ {
			num = append(num, a.Num[j])
		}
		atoms[i] = Atom{Num: num, Den: a.Den}
		// Constant if no variable and no non-constant atom reference remains.
		isConst := true
		s := c0
		for j := 1; j < len(num); j++ {
			if num[j] == 0 {
				continue
			}
			if j > newNVar {
				if cv, ok := constVal[j-1-newNVar]; ok {
					s += num[j] * cv
					continue
				}
			}
			isConst = false
			break
		}
		if isConst {
			constVal[i] = ints.FloorDiv(s, a.Den)
		}
	}
	out := QPoly{NVar: newNVar, Atoms: atoms}
	ncols := newNVar + len(atoms)
	for _, t := range p.Terms {
		coef := t.Coef
		pow := make([]int, ncols)
		for j, e := range t.Pow {
			if e == 0 {
				continue
			}
			switch {
			case j < n:
				for k := 0; k < e; k++ {
					coef = coef.Mul(ints.RatInt(vals[j]))
				}
			case j < p.NVar:
				pow[j-n] = e
			default:
				idx := j - p.NVar
				if cv, isC := constVal[idx]; isC {
					for k := 0; k < e; k++ {
						coef = coef.Mul(ints.RatInt(cv))
					}
				} else {
					pow[newNVar+idx] = e
				}
			}
		}
		out.Terms = append(out.Terms, Term{Coef: coef, Pow: pow})
	}
	return out.normalize()
}

// AtomsDependingOnVar returns the indices of atoms whose argument
// (transitively) references variable v.
func (p QPoly) AtomsDependingOnVar(v int) []int {
	dep := p.atomDependsOnVar(v)
	var out []int
	for i, d := range dep {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// MapVars reinterprets p over a new variable set: variable i of p becomes
// variable varMap[i] of the result (which has newNVar variables). A mapping
// of -1 asserts that p does not use that variable; ok is false if it does.
func (p QPoly) MapVars(newNVar int, varMap []int) (QPoly, bool) {
	for v, m := range varMap {
		if m == -1 && p.UsesVar(v) {
			return QPoly{}, false
		}
	}
	out := Zero(newNVar)
	// Remap atoms in order.
	atomMap := make([]int, len(p.Atoms))
	for i, a := range p.Atoms {
		num := make([]int64, 1+newNVar+len(out.Atoms))
		for j, c := range a.Num {
			if c == 0 {
				continue
			}
			switch {
			case j == 0:
				num[0] += c
			case j <= p.NVar:
				nv := varMap[j-1]
				if nv == -1 {
					return QPoly{}, false
				}
				num[1+nv] += c
			default:
				num[1+newNVar+atomMap[j-1-p.NVar]] += c
			}
		}
		out.Atoms = append(out.Atoms, Atom{Num: num, Den: a.Den})
		atomMap[i] = len(out.Atoms) - 1
	}
	for _, t := range p.Terms {
		pw := make([]int, newNVar+len(out.Atoms))
		for j, e := range t.Pow {
			if e == 0 {
				continue
			}
			if j < p.NVar {
				nv := varMap[j]
				if nv == -1 {
					return QPoly{}, false
				}
				pw[nv] += e
			} else {
				pw[newNVar+atomMap[j-p.NVar]] += e
			}
		}
		out.Terms = append(out.Terms, Term{Coef: t.Coef, Pow: pw})
	}
	return out.normalize(), true
}

// Faulhaber returns the coefficients (index = power of n) of the polynomial
// P_k(n) = sum_{y=1}^{n} y^k, which has degree k+1. The polynomial identity
// P_k(n) - P_k(n-1) = n^k holds for all integers n, so the telescoping sum
// sum_{y=lo}^{hi} y^k = P_k(hi) - P_k(lo-1) is valid for negative bounds as
// well.
func Faulhaber(k int) []ints.Rat { return faulhaberUpTo(k)[k] }

// faulhaberUpTo returns Faulhaber(k) for every k up to maxK; each P_k is
// derived from the ones before it.
func faulhaberUpTo(maxK int) [][]ints.Rat {
	// (k+1) P_k(n) = (n+1)^{k+1} - 1 - sum_{j=0}^{k-1} C(k+1, j) P_j(n)
	coeffs := make([][]ints.Rat, maxK+1)
	for k := range coeffs {
		c := make([]ints.Rat, k+2)
		// (n+1)^{k+1} expanded.
		for j := 0; j <= k+1; j++ {
			c[j] = ints.RatInt(binomial(k+1, j))
		}
		c[0] = c[0].Sub(ints.RatInt(1))
		for j := 0; j < k; j++ {
			b := ints.RatInt(binomial(k+1, j))
			for d, pc := range coeffs[j] {
				c[d] = c[d].Sub(b.Mul(pc))
			}
		}
		inv := ints.NewRat(1, int64(k+1))
		for d := range c {
			c[d] = c[d].Mul(inv)
		}
		coeffs[k] = c
	}
	return coeffs
}

func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	var r int64 = 1
	for i := 0; i < k; i++ {
		r = r * int64(n-i) / int64(i+1)
	}
	return r
}

// SumOverRange computes sum_{y=lo}^{hi} p(y) symbolically, where p is a
// polynomial in variable v (whose atoms must not depend on v) and lo, hi are
// quasi-polynomials over the same variables not referencing v. The result
// does not reference v. The caller must separately restrict the domain to
// lo <= hi; on the lo > hi part of the domain the returned expression is not
// meaningful.
func SumOverRange(p QPoly, v int, lo, hi QPoly) (QPoly, bool) {
	coeffs, ok := p.CoefficientsOfVar(v)
	if !ok {
		return QPoly{}, false
	}
	if lo.UsesVar(v) || hi.UsesVar(v) {
		return QPoly{}, false
	}
	maxK := -1
	for k, ck := range coeffs {
		if !ck.IsZero() {
			maxK = k
		}
	}
	total := Zero(p.NVar)
	if maxK < 0 {
		return total, true
	}
	hiPows, loPows := hi.powers(maxK+1), lo.Sub(ConstInt(p.NVar, 1)).powers(maxK+1)
	faulhaber := faulhaberUpTo(maxK)
	evalAt := func(f []ints.Rat, pows []QPoly) QPoly {
		s := Zero(p.NVar)
		for d, c := range f {
			if !c.IsZero() {
				s = s.addScaled(pows[d], c)
			}
		}
		return s
	}
	for k, ck := range coeffs {
		if ck.IsZero() {
			continue
		}
		f := faulhaber[k]
		total = total.Add(ck.Mul(evalAt(f, hiPows).Sub(evalAt(f, loPows))))
	}
	return total, true
}
