package presburger

import (
	"cmp"
	"math"
	"slices"

	"haystack/internal/ints"
)

// Signature is the cheap disjointness certificate of a basic set, or of a
// basic map's domain: the constant box its single-dimension constraints
// imply, and the residue classes its equalities imply. Two basics whose
// signatures Separate share no point. The piecewise folds of the pipeline
// (lexmin's chambers, qpoly's Add and MergeDisjointSum, the summand bag's
// filter, the union scan's dedup skip) use it to skip the symbolic
// intersection of pieces that cannot overlap.
//
// The box separates basics living in different regions, among them basics
// pinning a dimension to different constants. The residue classes separate
// interleaved stripes whose boxes fully overlap (residue splits of the
// counting engine, cache-set partitions). They come from the equalities: an
// equality
//
//	c0 + Σ aj·xj + Σ bk·ek = 0
//
// over integer div variables ek implies c0 + Σ aj·xj ≡ 0 (mod g) for
// g = gcd(|bk|), however the divs are defined, because every ek takes
// integer values.
type Signature struct {
	// lo and hi bound every dimension; math.MinInt64 and math.MaxInt64
	// stand for a side without a constant bound.
	lo, hi []int64
	// res holds the residue classes, sorted by residueClass.cmpKey.
	res []residueClass
}

// residueClass records the congruence Σ coeffs[d]·xd ≡ r (mod mod),
// normalized (common factor of the coefficients and the modulus divided out,
// leading nonzero coefficient positive) so that equal congruences of
// independently built basics compare equal.
type residueClass struct {
	mod    int64
	coeffs []int64
	r      int64
}

// cmpKey orders residue classes by their congruence, ignoring the residue.
func (a residueClass) cmpKey(b residueClass) int {
	if c := cmp.Compare(a.mod, b.mod); c != 0 {
		return c
	}
	return slices.Compare(a.coeffs, b.coeffs)
}

// Signature returns the disjointness signature of the basic set.
func (bs BasicSet) Signature() Signature { return bs.b.signature(bs.b.ndim) }

// DomainSignature returns the disjointness signature of the basic map's
// domain: box sides of input dimensions, and only the congruences that do
// not involve an output dimension. Basic maps whose domain signatures
// Separate have disjoint domains; two basic maps over the same inputs stay
// together whatever their outputs.
func (bm BasicMap) DomainSignature() Signature { return bm.b.signature(bm.NIn()) }

// Bounds returns the constant bounds of dimension d. A side without one
// reads math.MinInt64 or math.MaxInt64; lo == hi means the basic pins d.
func (s Signature) Bounds(d int) (lo, hi int64) { return s.lo[d], s.hi[d] }

// Separate reports whether the signatures prove their basics disjoint: the
// boxes miss each other on some dimension, or a congruence both imply holds
// with different residues.
func (s Signature) Separate(o Signature) bool {
	for d := range min(len(s.lo), len(o.lo)) {
		if s.lo[d] > o.hi[d] || o.lo[d] > s.hi[d] {
			return true
		}
	}
	i, j := 0, 0
	for i < len(s.res) && j < len(o.res) {
		switch c := s.res[i].cmpKey(o.res[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		case s.res[i].r != o.res[j].r:
			return true
		default:
			i++
			j++
		}
	}
	return false
}

// signature builds the signature of b's projection onto its first n
// dimensions.
func (b *basic) signature(n int) Signature {
	lo, hi := b.box(n)
	return Signature{lo: lo, hi: hi, res: b.residues(n)}
}

// box returns the tightest constant bounds of the first n dimensions that
// single-column constraints imply (an equality bounds both sides), with
// math.MinInt64 and math.MaxInt64 for a side without one.
func (b *basic) box(n int) (lo, hi []int64) {
	lo, hi = make([]int64, n), make([]int64, n)
	for d := range lo {
		lo[d], hi[d] = math.MinInt64, math.MaxInt64
	}
	for _, c := range b.cons {
		col, cnt := -1, 0
		for j := 1; j < len(c.C); j++ {
			if c.C[j] != 0 {
				col = j
				cnt++
			}
		}
		if cnt != 1 || col > n {
			continue
		}
		d := col - 1
		a, k := c.C[col], c.C[0]
		switch {
		case c.Eq:
			if k%a != 0 {
				continue // infeasible; emptiness is detected elsewhere
			}
			lo[d], hi[d] = max(lo[d], -k/a), min(hi[d], -k/a)
		case a > 0:
			lo[d] = max(lo[d], ints.CeilDiv(-k, a))
		default:
			hi[d] = min(hi[d], ints.FloorDiv(k, -a))
		}
	}
	return lo, hi
}

// residues returns the residue classes over the first n dimensions that
// b's equalities imply, sorted by cmpKey.
func (b *basic) residues(n int) []residueClass {
	var out []residueClass
	for _, c := range b.cons {
		if !c.Eq {
			continue
		}
		cc := c.C
		var g int64
		for j := 1 + b.ndim; j < len(cc); j++ {
			g = ints.GCD(g, cc[j])
		}
		if g <= 1 {
			continue
		}
		coeffs := make([]int64, n)
		nonZero, later := false, false
		for d := 0; d < b.ndim && 1+d < len(cc); d++ {
			switch {
			case d < n:
				coeffs[d] = cc[1+d]
				nonZero = nonZero || coeffs[d] != 0
			case cc[1+d] != 0:
				later = true
			}
		}
		if !nonZero || later {
			// A constant congruence carries no separation value: it is either
			// vacuous or makes the set empty, and emptiness is detected
			// elsewhere. One that involves a later dimension is no congruence
			// of the projection.
			continue
		}
		// Divide out the common factor of the coefficients and the modulus:
		// d·expr ≡ r (mod d·m) is expr ≡ r/d (mod m), and classes with a
		// residue the factor does not divide are empty.
		f := g
		for _, a := range coeffs {
			f = ints.GCD(f, a)
		}
		r := ((-cc[0])%g + g) % g
		if f > 1 {
			if r%f != 0 {
				continue // empty set; no separation claim needed
			}
			for d := range coeffs {
				coeffs[d] /= f
			}
			g /= f
			r /= f
			if g <= 1 {
				continue
			}
		}
		// Canonical sign: make the leading nonzero coefficient positive
		// (negating the equality negates expr and c0 but keeps the class).
		if i := slices.IndexFunc(coeffs, func(a int64) bool { return a != 0 }); coeffs[i] < 0 {
			for d := range coeffs {
				coeffs[d] = -coeffs[d]
			}
			r = (g - r) % g
		}
		out = append(out, residueClass{mod: g, coeffs: coeffs, r: r})
	}
	// A second congruence on the same expression either repeats the first or
	// empties the set; the stable sort keeps the first for a stable
	// signature.
	slices.SortStableFunc(out, residueClass.cmpKey)
	return slices.CompactFunc(out, func(a, b residueClass) bool { return a.cmpKey(b) == 0 })
}

// GroupDisjoint partitions the indices of sigs into chambers such that
// members of different chambers are provably disjoint. sigs[i] lists the
// signatures of item i's basics; items i and j land in the same chamber
// exactly when they are connected through pairs with some basic pair whose
// signatures do not Separate, each unordered pair tested once. Chambers are
// ordered by their smallest member and preserve index order — the
// deterministic shape the domain-partitioned folds of the pipeline rely on.
func GroupDisjoint(sigs [][]Signature) [][]int {
	n := len(sigs)
	mayOverlap := func(i, j int) bool {
		for _, a := range sigs[i] {
			for _, b := range sigs[j] {
				if !a.Separate(b) {
					return true
				}
			}
		}
		return false
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if find(i) != find(j) && mayOverlap(i, j) {
				parent[find(j)] = find(i)
			}
		}
	}
	order := make(map[int]int, n)
	var groups [][]int
	for i := 0; i < n; i++ {
		r := find(i)
		gi, ok := order[r]
		if !ok {
			gi = len(groups)
			order[r] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}
