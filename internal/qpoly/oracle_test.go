package qpoly

// The string-keyed arithmetic the package used before its term store was
// made allocation-lean, kept verbatim as the oracle of the differential
// tests: every kernel of qpoly.go and manip.go must return the same atom
// table and the same term list, in the same order, as its ref counterpart.

import (
	"strconv"

	"haystack/internal/ints"
)

func refKey(a Atom) string {
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

func refCloneAtom(a Atom) Atom { return Atom{Num: append([]int64(nil), a.Num...), Den: a.Den} }

func refCloneTerm(t Term) Term { return Term{Coef: t.Coef, Pow: append([]int(nil), t.Pow...)} }

func refClone(p QPoly) QPoly {
	out := QPoly{NVar: p.NVar}
	out.Atoms = make([]Atom, len(p.Atoms))
	for i, a := range p.Atoms {
		out.Atoms[i] = refCloneAtom(a)
	}
	out.Terms = make([]Term, len(p.Terms))
	for i, t := range p.Terms {
		out.Terms[i] = refCloneTerm(t)
	}
	return out
}

func refAtomIndex(p *QPoly, a Atom) int {
	want := refKey(a)
	for i, e := range p.Atoms {
		if refKey(e) == want {
			return i
		}
	}
	p.Atoms = append(p.Atoms, refCloneAtom(a))
	for i := range p.Terms {
		p.Terms[i].Pow = append(p.Terms[i].Pow, 0)
	}
	return len(p.Atoms) - 1
}

func refMergeAtomsFrom(p *QPoly, o QPoly) []int {
	if p.NVar != o.NVar {
		panic("qpoly: mixing polynomials over different variable counts")
	}
	colMap := make([]int, o.ncols())
	for v := 0; v < o.NVar; v++ {
		colMap[v] = v
	}
	for i, a := range o.Atoms {
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
				col := colMap[j-1]
				num[1+col] += c
			}
		}
		idx := refAtomIndex(p, Atom{Num: num, Den: a.Den})
		colMap[o.NVar+i] = p.NVar + idx
	}
	return colMap
}

func refCanonicalizeAtoms(p QPoly) QPoly {
	if len(p.Atoms) == 0 {
		return p
	}
	out := QPoly{NVar: p.NVar}
	isConst := make([]bool, len(p.Atoms))
	constVal := make([]int64, len(p.Atoms))
	amap := make([]int, len(p.Atoms))
	changed := false
	for i, a := range p.Atoms {
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
		cand := Atom{Num: num, Den: den}
		idx := -1
		for k, e := range out.Atoms {
			if e.Den == cand.Den && refKey(e) == refKey(cand) {
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

func refNormalize(p QPoly) QPoly {
	p = refCanonicalizeAtoms(p)
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
	return refDropUnusedAtoms(out)
}

func refDropUnusedAtoms(p QPoly) QPoly {
	used := make([]bool, len(p.Atoms))
	for _, t := range p.Terms {
		for j := p.NVar; j < len(t.Pow); j++ {
			if t.Pow[j] != 0 {
				used[j-p.NVar] = true
			}
		}
	}
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

func refAdd(p, o QPoly) QPoly {
	out := refClone(p)
	colMap := refMergeAtomsFrom(&out, o)
	for _, t := range o.Terms {
		pw := make([]int, out.ncols())
		for j, e := range t.Pow {
			if e != 0 {
				pw[colMap[j]] = e
			}
		}
		out.Terms = append(out.Terms, Term{Coef: t.Coef, Pow: pw})
	}
	return refNormalize(out)
}

func refSub(p, o QPoly) QPoly { return refAdd(p, refScale(o, ints.RatInt(-1))) }

func refScale(p QPoly, c ints.Rat) QPoly {
	if c.IsZero() {
		return Zero(p.NVar)
	}
	out := refClone(p)
	for i := range out.Terms {
		out.Terms[i].Coef = out.Terms[i].Coef.Mul(c)
	}
	return out
}

func refMul(p, o QPoly) QPoly {
	out := Zero(p.NVar)
	out.Atoms = append([]Atom(nil), refClone(p).Atoms...)
	colMapP := make([]int, p.ncols())
	for i := range colMapP {
		colMapP[i] = i
	}
	colMapO := refMergeAtomsFrom(&out, o)
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
	return refNormalize(out)
}

func refPow(p QPoly, k int) QPoly {
	out := ConstInt(p.NVar, 1)
	for i := 0; i < k; i++ {
		out = refMul(out, p)
	}
	return out
}

func refAtomPoly(p QPoly, idx int) QPoly {
	out := Zero(p.NVar)
	out.Atoms = append([]Atom(nil), refClone(p).Atoms...)
	pw := make([]int, out.ncols())
	pw[out.NVar+idx] = 1
	out.Terms = []Term{{Coef: ints.RatInt(1), Pow: pw}}
	return out
}

func refWithAtom(p QPoly, num []int64, den int64) (QPoly, int) {
	out := refClone(p)
	padded := make([]int64, 1+out.ncols())
	copy(padded, num)
	idx := refAtomIndex(&out, Atom{Num: padded, Den: den})
	return out, idx
}

func refSubstituteVar(p QPoly, v int, expr QPoly) (QPoly, bool) {
	dep := p.atomDependsOnVar(v)
	for i := range dep {
		if dep[i] {
			return QPoly{}, false
		}
	}
	out := Zero(p.NVar)
	for _, t := range p.Terms {
		factor := refScale(ConstInt(p.NVar, 1), t.Coef)
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
			factor = refMul(factor, refPow(base, e))
		}
		out = refAdd(out, factor)
	}
	return out, true
}

func refCoefficientsOfVar(p QPoly, v int) ([]QPoly, bool) {
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
	coeffs := make([]QPoly, deg+1)
	for k := range coeffs {
		coeffs[k] = Zero(p.NVar)
	}
	for _, t := range p.Terms {
		k := t.Pow[v]
		nt := refCloneTerm(t)
		nt.Pow[v] = 0
		single := QPoly{NVar: p.NVar, Atoms: append([]Atom(nil), p.Atoms...), Terms: []Term{nt}}
		coeffs[k] = refAdd(coeffs[k], single)
	}
	return coeffs, true
}

func refSubstituteAtom(p QPoly, idx int, expr QPoly) (QPoly, bool) {
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
		factor := refScale(ConstInt(p.NVar, 1), t.Coef)
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
				base = refAtomPoly(p, j-p.NVar)
			}
			factor = refMul(factor, refPow(base, e))
		}
		out = refAdd(out, factor)
	}
	return out, true
}

func refSubstitutePlainVar(p QPoly, v int, expr QPoly) QPoly {
	out := Zero(p.NVar)
	for _, t := range p.Terms {
		factor := refScale(ConstInt(p.NVar, 1), t.Coef)
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
				base = refAtomPoly(p, j-p.NVar)
			}
			factor = refMul(factor, refPow(base, e))
		}
		out = refAdd(out, factor)
	}
	return out
}

func refBindVar(p QPoly, v int, value int64) QPoly {
	rewritten := refClone(p)
	for i := range rewritten.Atoms {
		num := rewritten.Atoms[i].Num
		if 1+v < len(num) && num[1+v] != 0 {
			num[0] += num[1+v] * value
			num[1+v] = 0
		}
	}
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
		factor := refScale(ConstInt(p.NVar, 1), t.Coef)
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
					base = refAtomPoly(rewritten, j-p.NVar)
				}
			}
			factor = refMul(factor, refPow(base, e))
		}
		out = refAdd(out, factor)
	}
	return out
}

func refSumOverRange(p QPoly, v int, lo, hi QPoly) (QPoly, bool) {
	coeffs, ok := refCoefficientsOfVar(p, v)
	if !ok {
		return QPoly{}, false
	}
	if lo.UsesVar(v) || hi.UsesVar(v) {
		return QPoly{}, false
	}
	total := Zero(p.NVar)
	loMinus1 := refSub(lo, ConstInt(p.NVar, 1))
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
				s = refAdd(s, refScale(refPow(arg, d), c))
			}
			return s
		}
		total = refAdd(total, refMul(ck, refSub(evalAt(hi), evalAt(loMinus1))))
	}
	return total, true
}
