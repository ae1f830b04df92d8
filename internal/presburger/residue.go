package presburger

import "fmt"

// This file holds the residue-class (modulo) constraint helpers the
// set-associative cache model builds its set-index maps from: the set of a
// cache line is set(line) = line mod numSets, an affine relation once the
// quotient floor(line/numSets) is introduced as a local div.

// ModEq returns the basic set constrained to expr ≡ residue (mod m): it
// introduces the local div q = floor(expr/m) and adds the equality
// expr - m*q == residue. expr is a coefficient vector over the columns of bs
// (shorter vectors are zero-extended); it may reference existing divs, which
// keeps the div list acyclic and well ordered. m must be positive and
// residue in [0, m).
func (bs BasicSet) ModEq(expr Vec, m, residue int64) BasicSet {
	if m <= 0 {
		panic(fmt.Sprintf("presburger: ModEq modulus must be positive, got %d", m))
	}
	if residue < 0 || residue >= m {
		panic(fmt.Sprintf("presburger: ModEq residue %d outside [0, %d)", residue, m))
	}
	out, col := bs.AddDiv(expr, m)
	c := Constraint{C: expr.Resized(out.NCols()), Eq: true}
	c.C[0] -= residue
	c.C[col] -= m
	out.b.addConstraint(c)
	return out
}

// ResidueSet returns the subset of the universe of sp whose value of expr is
// congruent to residue modulo m. expr is a coefficient vector over
// [const, dims...] of sp. The residue classes 0..m-1 partition the universe,
// which is exactly how the cache model splits an array's lines among the
// cache sets.
func ResidueSet(sp Space, expr Vec, m, residue int64) Set {
	return SetFromBasic(UniverseBasicSet(sp).ModEq(expr, m, residue))
}
