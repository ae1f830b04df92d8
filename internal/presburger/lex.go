package presburger

// IdentityMap returns the identity relation on the space.
func IdentityMap(sp Space) Map {
	bm := UniverseBasicMap(sp, sp)
	n := sp.Dim()
	for i := 0; i < n; i++ {
		c := Constraint{C: NewVec(bm.NCols()), Eq: true}
		c.C[1+i] = -1
		c.C[1+n+i] = 1
		bm.b.addConstraint(c)
	}
	return MapFromBasic(bm)
}

// lexPrefix builds the basic map with x_0 == y_0, ..., x_{d-1} == y_{d-1}
// and y_d - x_d - 1 >= 0 (strict at depth d).
func lexPrefixStrict(sp Space, d int) BasicMap {
	bm := UniverseBasicMap(sp, sp)
	n := sp.Dim()
	for i := 0; i < d; i++ {
		c := Constraint{C: NewVec(bm.NCols()), Eq: true}
		c.C[1+i] = -1
		c.C[1+n+i] = 1
		bm.b.addConstraint(c)
	}
	c := Constraint{C: NewVec(bm.NCols())}
	c.C[1+d] = -1
	c.C[1+n+d] = 1
	c.C[0] = -1
	bm.b.addConstraint(c)
	return bm
}

// LexLT returns the relation { x -> y : x lexicographically smaller than y }
// on the space. Parameter dimensions (sp.NParam) are never ordered: the
// relation holds only between tuples with equal parameter values, and the
// first position that may differ is the first non-parameter dimension.
func LexLT(sp Space) Map {
	m := EmptyMap(sp, sp)
	for d := sp.NParam; d < sp.Dim(); d++ {
		m.basics = append(m.basics, lexPrefixStrict(sp, d).b)
	}
	return m
}

// LexLE returns the relation { x -> y : x lexicographically smaller than or
// equal to y } on the space.
func LexLE(sp Space) Map {
	return LexLT(sp).Union(IdentityMap(sp))
}

// LexGT returns { x -> y : x lexicographically greater than y }.
func LexGT(sp Space) Map { return LexLT(sp).Reverse() }

// LexGE returns { x -> y : x lexicographically greater than or equal to y }.
func LexGE(sp Space) Map { return LexLE(sp).Reverse() }
