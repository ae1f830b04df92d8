package presburger

// transferDivs copies the div definitions of src into b (mapping src
// dimension i to b dimension dimMap[i]) and returns the column map from src
// columns to b columns so the caller can remap constraint vectors itself.
// b's constraint rows keep their width: the caller widens them once, after
// every div is in.
func (b *basic) transferDivs(src *basic, dimMap []int) []int {
	colMap := make([]int, src.ncols())
	for i := 0; i < src.ndim; i++ {
		colMap[src.dimCol(i)] = b.dimCol(dimMap[i])
	}
	// One numerator buffer serves every div: appendDiv copies what it keeps.
	var buf Vec
	if len(src.divs) > 0 {
		buf = NewVec(b.ncols() + len(src.divs))
	}
	for i := range src.divs {
		num := buf[:b.ncols()]
		clear(num)
		for j, x := range clip(src.divs[i].Num, src.ncols()) {
			if x != 0 {
				num[colMap[j]] += x
			}
		}
		colMap[src.divCol(i)] = b.appendDiv(num, src.divs[i].Den)
	}
	return colMap
}

// subtractBasic computes a \ o as a union of disjoint basics: the i-th piece
// keeps o's constraints 0..i-1 and negates constraint i. Negating an
// equality produces two pieces. The divs of o are well defined functions of
// the dimensions, so copying their definitions into each piece preserves
// exactness.
//
// Constraints of o implied by a (and the pieces kept so far) are gisted
// away: a \ o == a \ gist(o, a), and every dropped constraint is one piece
// fewer in the difference plus one inherited constraint fewer in all later
// pieces — subtraction chains are the worst basic-count amplifier of the
// pipeline, so this is where simplification in context pays the most.
func subtractBasic(a, o *basic) []basic {
	simplified := o.clone()
	if !simplified.simplify() {
		// o is empty: a \ o == a.
		return []basic{a.clone()}
	}
	var pieces []basic
	prefix := a.clone()
	colMap := prefix.transferDivs(&simplified, identityDimMap(simplified.ndim))
	prefix.resize()
	remap := func(dst *basic, v Vec) Vec {
		out := NewVec(dst.ncols())
		for j, x := range v {
			if x == 0 {
				continue
			}
			out[colMap[j]] += x
		}
		return out
	}
	keep := make([]bool, len(simplified.cons))
	for i := range keep {
		keep[i] = true
	}
	if gistCols := prefix.ncols(); len(prefix.cons)+len(simplified.cons) <= gistMaxCons && gistCols <= gistMaxCols {
		cands := make([]Constraint, len(simplified.cons))
		for i, c := range simplified.cons {
			cands[i] = Constraint{C: remap(&prefix, c.C), Eq: c.Eq}
		}
		keep = gistFilter(prefix.materializedConstraints(nil), gistCols, cands)
	}
	for ci, c := range simplified.cons {
		if !keep[ci] {
			continue // holds everywhere in a ∧ kept prefix: empty piece
		}
		if c.Eq {
			// piece with e >= 1 and piece with -e >= 1
			p1 := prefix.clone()
			cv := remap(&p1, c.C)
			cv[0]--
			p1.addConstraint(Constraint{C: cv})
			pieces = append(pieces, p1)

			p2 := prefix.clone()
			cv2 := remap(&p2, c.C).Neg()
			cv2[0]--
			p2.addConstraint(Constraint{C: cv2})
			pieces = append(pieces, p2)
		} else {
			// piece with -e - 1 >= 0
			p := prefix.clone()
			cv := remap(&p, c.C).Neg()
			cv[0]--
			p.addConstraint(Constraint{C: cv})
			pieces = append(pieces, p)
		}
		// Keep the (non-negated) constraint for subsequent pieces so the
		// pieces stay disjoint.
		prefix.addConstraint(Constraint{C: remap(&prefix, c.C), Eq: c.Eq})
	}
	// Filter detectably empty pieces.
	out := pieces[:0]
	for _, p := range pieces {
		cl := p.clone()
		if !cl.simplify() {
			continue
		}
		if !cl.rationalFeasible() {
			continue
		}
		out = append(out, cl)
	}
	return out
}

// Subtract returns the basic set difference bs \ o as a set.
func (bs BasicSet) Subtract(o BasicSet) Set {
	if !bs.space.Equal(o.space) {
		panic("presburger: subtract space mismatch")
	}
	pieces := subtractBasic(&bs.b, &o.b)
	out := EmptySet(bs.space)
	for _, p := range pieces {
		out.basics = append(out.basics, BasicSet{space: bs.space, b: p})
	}
	return out
}

// Subtract returns the set difference s \ o. The accumulating union is
// coalesced after every subtrahend: subtraction is the worst basic-count
// amplifier of the pipeline (each step can multiply the piece count by the
// subtrahend's constraint count), and the slabs it produces are exactly the
// adjacent/subsumed shapes the coalescer folds back together.
func (s Set) Subtract(o Set) Set {
	if !s.space.Equal(o.space) {
		panic("presburger: subtract space mismatch")
	}
	cur := s
	for _, ob := range o.basics {
		next := EmptySet(s.space)
		for _, ab := range cur.basics {
			// Disjoint operands subtract to the minuend unchanged; checking
			// this first avoids the piece explosion of the general algorithm
			// in the common case.
			if ab.Intersect(ob).DefinitelyEmpty() {
				next.basics = append(next.basics, ab)
				continue
			}
			next = next.Union(ab.Subtract(ob))
		}
		cur = next.coalesce(false)
	}
	return cur
}

// Subtract returns the map difference bm \ o as a map.
func (bm BasicMap) Subtract(o BasicMap) Map {
	if !bm.in.Equal(o.in) || !bm.out.Equal(o.out) {
		panic("presburger: subtract space mismatch")
	}
	pieces := subtractBasic(&bm.b, &o.b)
	out := EmptyMap(bm.in, bm.out)
	for _, p := range pieces {
		out.basics = append(out.basics, BasicMap{in: bm.in, out: bm.out, b: p})
	}
	return out
}

// Subtract returns the map difference m \ o.
func (m Map) Subtract(o Map) Map {
	if !m.in.Equal(o.in) || !m.out.Equal(o.out) {
		panic("presburger: subtract space mismatch")
	}
	cur := m
	for _, ob := range o.basics {
		next := EmptyMap(m.in, m.out)
		for _, ab := range cur.basics {
			if ab.Intersect(ob).DefinitelyEmpty() {
				next.basics = append(next.basics, ab)
				continue
			}
			next = next.Union(ab.Subtract(ob))
		}
		cur = next.coalesce(false)
	}
	return cur
}
