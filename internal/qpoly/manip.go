package qpoly

import (
	"haystack/internal/ints"
)

// WithAtom returns p extended with the floor atom floor(num/den), where num
// is laid out over [const, vars..., existing atoms of p...], together with
// the atom's index. An identical existing atom is reused.
func (p QPoly) WithAtom(num []int64, den int64) (QPoly, int) {
	out := p.Clone()
	padded := make([]int64, 1+out.ncols())
	copy(padded, num)
	idx := out.atomIndex(Atom{Num: padded, Den: den})
	return out, idx
}

// AtomPoly returns the polynomial consisting of the single atom with the
// given index (sharing p's atom table).
func (p QPoly) AtomPoly(idx int) QPoly {
	out := Zero(p.NVar)
	out.Atoms = append([]Atom(nil), p.Clone().Atoms...)
	pw := make([]int, out.ncols())
	pw[out.NVar+idx] = 1
	out.Terms = []Term{{Coef: ints.RatInt(1), Pow: pw}}
	return out
}

// CoefficientsOfVar writes p as sum_k coeff_k * v^k where no coeff_k
// references v directly. It requires that no atom of p depends on v (split
// such atoms first); ok is false otherwise. The returned slice is indexed by
// k and has length degree+1.
func (p QPoly) CoefficientsOfVar(v int) (coeffs []QPoly, ok bool) {
	dep := p.atomDependsOnVar(v)
	for _, d := range dep {
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
	coeffs = make([]QPoly, deg+1)
	for k := range coeffs {
		coeffs[k] = Zero(p.NVar)
	}
	for _, t := range p.Terms {
		k := t.Pow[v]
		nt := t.clone()
		nt.Pow[v] = 0
		single := QPoly{NVar: p.NVar, Atoms: append([]Atom(nil), p.Atoms...), Terms: []Term{nt}}
		coeffs[k] = coeffs[k].Add(single)
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
	out := Zero(p.NVar)
	for _, t := range p.Terms {
		factor := ConstInt(p.NVar, 1).Scale(t.Coef)
		for j, e := range t.Pow {
			if e == 0 {
				continue
			}
			var base QPoly
			switch {
			case j < p.NVar:
				base = Var(p.NVar, j)
			case j-p.NVar == idx:
				base = expr
			default:
				base = p.AtomPoly(j - p.NVar)
			}
			factor = factor.Mul(base.Pow(e))
		}
		out = out.Add(factor)
	}
	return out, true
}

// SubstitutePlainVar replaces only the explicit occurrences of variable v in
// the terms of p by expr, leaving atom arguments untouched. It is used by
// the counting engine when rewriting a dimension as an arithmetic
// progression: explicit occurrences and occurrences inside floor atoms are
// rewritten in two separate passes.
func (p QPoly) SubstitutePlainVar(v int, expr QPoly) QPoly {
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
				base = p.AtomPoly(j - p.NVar)
			}
			factor = factor.Mul(base.Pow(e))
		}
		out = out.Add(factor)
	}
	return out
}

// BindVar fixes variable v to a constant value everywhere, including inside
// floor atom arguments. Atoms whose argument becomes constant are folded
// into plain numbers.
func (p QPoly) BindVar(v int, value int64) QPoly {
	// Rewrite atom numerators first.
	rewritten := p.Clone()
	for i := range rewritten.Atoms {
		num := rewritten.Atoms[i].Num
		if 1+v < len(num) && num[1+v] != 0 {
			num[0] += num[1+v] * value
			num[1+v] = 0
		}
	}
	// Fold atoms that are now constant (no var or atom references). Process
	// in order so that references to folded atoms become constants too.
	constVal := make(map[int]int64)
	for i, a := range rewritten.Atoms {
		s := a.Num[0]
		isConst := true
		for j := 1; j < len(a.Num); j++ {
			if a.Num[j] == 0 {
				continue
			}
			if j > rewritten.NVar {
				if cv, ok := constVal[j-1-rewritten.NVar]; ok {
					s += a.Num[j] * cv
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
	out := Zero(p.NVar)
	for _, t := range rewritten.Terms {
		factor := ConstInt(p.NVar, 1).Scale(t.Coef)
		for j, e := range t.Pow {
			if e == 0 {
				continue
			}
			var base QPoly
			switch {
			case j == v:
				base = ConstInt(p.NVar, value)
			case j < p.NVar:
				base = Var(p.NVar, j)
			default:
				if cv, ok := constVal[j-p.NVar]; ok {
					base = ConstInt(p.NVar, cv)
				} else {
					base = rewritten.AtomPoly(j - p.NVar)
				}
			}
			factor = factor.Mul(base.Pow(e))
		}
		out = out.Add(factor)
	}
	return out
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
func Faulhaber(k int) []ints.Rat {
	// (k+1) P_k(n) = (n+1)^{k+1} - 1 - sum_{j=0}^{k-1} C(k+1, j) P_j(n)
	coeffs := make([][]ints.Rat, k+1)
	for kk := 0; kk <= k; kk++ {
		c := make([]ints.Rat, kk+2)
		// (n+1)^{kk+1} expanded.
		for j := 0; j <= kk+1; j++ {
			c[j] = ints.RatInt(binomial(kk+1, j))
		}
		c[0] = c[0].Sub(ints.RatInt(1))
		for j := 0; j < kk; j++ {
			b := ints.RatInt(binomial(kk+1, j))
			for d, pc := range coeffs[j] {
				c[d] = c[d].Sub(b.Mul(pc))
			}
		}
		inv := ints.NewRat(1, int64(kk+1))
		for d := range c {
			c[d] = c[d].Mul(inv)
		}
		coeffs[kk] = c
	}
	return coeffs[k]
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
	total := Zero(p.NVar)
	loMinus1 := lo.Sub(ConstInt(p.NVar, 1))
	for k, ck := range coeffs {
		if ck.IsZero() {
			continue
		}
		f := Faulhaber(k)
		evalAt := func(arg QPoly) QPoly {
			s := Zero(p.NVar)
			for d, c := range f {
				if c.IsZero() {
					continue
				}
				s = s.Add(arg.Pow(d).Scale(c))
			}
			return s
		}
		total = total.Add(ck.Mul(evalAt(hi).Sub(evalAt(loMinus1))))
	}
	return total, true
}
