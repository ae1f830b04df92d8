// Package lexmin computes parametric lexicographic minima and maxima of
// integer maps: for every input point of a relation, the lexicographically
// smallest (or largest) related output point. This is the role the
// parametric integer programming component of isl plays for the original
// HayStack, where it is used to build the "next" map (the following access
// to the same cache line) and the "first" map (the first access to a line).
//
// The implementation pins output dimensions one at a time to their binding
// lower bound, splitting the domain on which bound dominates, and then
// combines the per-basic-map minima by comparing candidate solutions and
// subtracting domains. Relations outside the supported quasi-affine fragment
// report ErrUnsupported so callers can fall back to enumeration.
package lexmin

import (
	"context"
	"errors"
	"fmt"

	"haystack/internal/parwork"
	"haystack/internal/presburger"
)

// ErrUnsupported reports that the relation left the supported fragment.
var ErrUnsupported = errors.New("lexmin: outside supported fragment")

// MapLexmin returns the relation that maps every input point of m to the
// lexicographically smallest output point m relates it to. The result is
// single-valued and covers exactly the domain of m.
//
// The basic maps are independent; only their combination is order
// dependent (ties go to the earlier relation). The combination is domain
// partitioned: candidates whose domains provably never overlap (different
// statements of a schedule space pin different constant dimensions) are
// folded in independent chambers and the chamber results are concatenated.
// Cross-chamber combineMin calls would degenerate to plain unions, so
// skipping them changes nothing semantically while removing the all-pairs
// subtraction cascade that made triangular kernels intractable.
func MapLexmin(m presburger.Map) (presburger.Map, error) {
	return mapLexmin(context.Background(), m, parwork.InlineExec(), true)
}

// mapLexminFlat is MapLexmin without the domain partitioning: every
// candidate folds into one accumulated relation. Kept as the reference
// implementation for differential tests.
func mapLexminFlat(m presburger.Map) (presburger.Map, error) {
	return mapLexmin(context.Background(), m, parwork.InlineExec(), false)
}

func mapLexmin(ctx context.Context, m presburger.Map, ex parwork.Exec, partition bool) (presburger.Map, error) {
	bms := m.Basics()
	perBasic := make([][]presburger.BasicMap, len(bms))
	err := ex.RunGroup(ctx, len(bms), func(_ *parwork.Worker, idx int) error {
		pieces, err := basicLexmin(ctx, bms[idx])
		if err != nil {
			return err
		}
		perBasic[idx] = pieces
		return nil
	})
	if err != nil {
		return presburger.Map{}, err
	}
	var candidates []presburger.Map
	for _, pieces := range perBasic {
		if len(pieces) == 0 {
			continue
		}
		candidate := presburger.MapFromBasics(pieces...).CoalesceQuick()
		if len(candidate.Basics()) == 0 {
			continue
		}
		candidates = append(candidates, candidate)
	}
	groups := [][]presburger.Map{candidates}
	if partition {
		groups = partitionByDomain(candidates)
	}
	result := presburger.EmptyMap(m.InSpace(), m.OutSpace())
	first := true
	for _, group := range groups {
		folded, err := foldMin(ctx, group)
		if err != nil {
			return presburger.Map{}, err
		}
		if len(folded.Basics()) == 0 {
			continue
		}
		if first {
			result = folded
			first = false
			continue
		}
		result = result.Union(folded)
	}
	presburger.DebugAssertMap(result, "lexmin")
	return result, nil
}

// foldMin combines the candidates of one chamber in their original order
// (ties go to the earlier relation).
func foldMin(ctx context.Context, group []presburger.Map) (presburger.Map, error) {
	var result presburger.Map
	for i, candidate := range group {
		if err := ctx.Err(); err != nil {
			return presburger.Map{}, err
		}
		if i == 0 {
			result = candidate
			continue
		}
		combined, err := combineMin(result, candidate)
		if err != nil {
			return presburger.Map{}, err
		}
		result = combined
	}
	return result, nil
}

// pinSig records, for one basic map of a candidate, which input dimensions
// are pinned to constants by its constraints (the form statement constants
// of a schedule space take).
type pinSig struct {
	pinned []bool
	pins   []int64
}

// partitionByDomain groups the candidates into chambers whose domains can
// overlap; candidates in different chambers are provably disjoint (every
// basic-map pair across them disagrees on an input dimension both pin).
// The partition is conservative (a pair that cannot cheaply be separated
// lands in the same chamber, which only costs combineMin work) and
// deterministic: chambers are ordered by their smallest candidate index and
// keep the original candidate order.
func partitionByDomain(candidates []presburger.Map) [][]presburger.Map {
	n := len(candidates)
	if n <= 1 {
		return [][]presburger.Map{candidates}
	}
	sigs := make([][]pinSig, n)
	for i, c := range candidates {
		for _, bm := range c.Basics() {
			pinned, pins := bm.PinnedInputDims()
			sigs[i] = append(sigs[i], pinSig{pinned, pins})
		}
	}
	mayOverlap := func(i, j int) bool {
		for _, sa := range sigs[i] {
			for _, sb := range sigs[j] {
				if !presburger.PinsSeparate(sa.pinned, sa.pins, sb.pinned, sb.pins) {
					return true
				}
			}
		}
		return false
	}
	idxGroups := presburger.GroupDisjoint(n, mayOverlap)
	groups := make([][]presburger.Map, len(idxGroups))
	for gi, idxs := range idxGroups {
		for _, i := range idxs {
			groups[gi] = append(groups[gi], candidates[i])
		}
	}
	return groups
}

// MapLexmaxExec returns the relation mapping every input point of m to the
// lexicographically largest related output point, with the per-basic-map
// maxima scheduled on the given executor. When ex is a Worker inside a
// running pool, the basic maps become splittable work units that idle
// workers steal. The computation checks ctx between basic maps, between fold
// steps, and between the output dimensions of each per-basic-map extremum,
// and returns the context error promptly. The combining fold stays
// sequential in the original order (see MapLexmin), so the result is
// bit-identical for every executor shape.
func MapLexmaxExec(ctx context.Context, m presburger.Map, ex parwork.Exec) (presburger.Map, error) {
	neg := negateOutputs(m)
	mn, err := mapLexmin(ctx, neg, ex, true)
	if err != nil {
		return presburger.Map{}, err
	}
	return negateOutputs(mn), nil
}

// negateOutputs composes m with the map y -> -y on its output space.
func negateOutputs(m presburger.Map) presburger.Map {
	sp := m.OutSpace()
	n := sp.Dim()
	bm := presburger.UniverseBasicMap(sp, sp)
	for i := 0; i < n; i++ {
		c := presburger.Constraint{C: presburger.NewVec(bm.NCols()), Eq: true}
		c.C[1+i] = 1
		c.C[1+n+i] = 1
		bm = bm.AddConstraint(c)
	}
	out, err := m.ApplyRange(presburger.MapFromBasic(bm))
	if err != nil {
		// The negation map is a bijection defined by unit-coefficient
		// equalities; composition with it cannot fail.
		panic(fmt.Sprintf("lexmin: negation composition failed: %v", err))
	}
	return out
}

// basicLexmin computes the lexicographic minimum of a single basic map as a
// union of single-valued basic maps with pairwise disjoint domains.
func basicLexmin(ctx context.Context, bm presburger.BasicMap) ([]presburger.BasicMap, error) {
	pieces := []presburger.BasicMap{bm}
	nIn, nOut := bm.NIn(), bm.NOut()
	for d := 0; d < nOut; d++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var next []presburger.BasicMap
		for _, piece := range pieces {
			split, err := pinDimension(piece, nIn, nOut, d)
			if err != nil {
				return nil, err
			}
			for _, s := range split {
				if !s.DefinitelyEmpty() {
					next = append(next, s)
				}
			}
		}
		pieces = next
	}
	return pieces, nil
}

// pinDimension pins output dimension d of the piece to its lexicographic
// minimum, splitting on which lower bound dominates.
func pinDimension(piece presburger.BasicMap, nIn, nOut, d int) ([]presburger.BasicMap, error) {
	// Work on the exact projection onto the input dims plus outputs 0..d so
	// the bounds on dimension d reflect the feasibility of the remaining
	// output dimensions.
	wrapped := piece.AsSet()
	keep := nIn + d + 1
	proj, err := wrapped.ProjectOut(keep, nIn+nOut-keep)
	if err != nil {
		return nil, fmt.Errorf("%w: projection failed: %v", ErrUnsupported, err)
	}
	proj, ok := proj.Simplify()
	if !ok {
		return nil, nil
	}
	col := 1 + nIn + d // column of y_d in the projection (and in the piece)
	ncols := proj.NCols()
	cons := proj.Constraints()
	divs := proj.Divs()

	// An equality already pins the dimension: nothing to do.
	for _, c := range cons {
		if c.Eq && col < len(c.C) && c.C[col] != 0 {
			return []presburger.BasicMap{piece}, nil
		}
	}
	type bound struct {
		a int64          // positive coefficient of y_d
		e presburger.Vec // remainder: constraint is a*y_d + e >= 0
	}
	var lowers []bound
	for _, c := range cons {
		cc := c.C.Resized(ncols)
		if cc[col] > 0 {
			e := cc.Clone()
			e[col] = 0
			lowers = append(lowers, bound{a: cc[col], e: e})
		}
	}
	if len(lowers) == 0 {
		return nil, fmt.Errorf("%w: output dimension %d has no lower bound", ErrUnsupported, d)
	}
	projDims := nIn + d + 1
	var out []presburger.BasicMap
	for li, lb := range lowers {
		p := piece
		// Import the divs of the projection so bound expressions can refer to
		// them; remap their columns onto the piece.
		divMap := make([]int, len(divs))
		for i, dv := range divs {
			num := remapProjVec(dv.Num.Resized(ncols), projDims, p.NCols(), divMap[:i])
			var dcol int
			p, dcol = p.AddDiv(num, dv.Den)
			divMap[i] = dcol
		}
		remap := func(v presburger.Vec) presburger.Vec {
			return remapProjVec(v.Resized(ncols), projDims, p.NCols(), divMap)
		}
		// Dominance constraints: the chosen bound is the maximum.
		for lj, other := range lowers {
			if lj == li {
				continue
			}
			// (-lb.e)/lb.a >= (-other.e)/other.a
			// <=> lb.a*other.e - other.a*lb.e >= 0
			c := presburger.NewVec(p.NCols())
			lbe := remap(lb.e)
			oe := remap(other.e)
			for k := range c {
				c[k] = lb.a*oe[k] - other.a*lbe[k]
			}
			if lj < li {
				c[0]--
			}
			p = p.AddConstraint(presburger.Constraint{C: c})
		}
		// Pin y_d to ceil(-e/a).
		if lb.a == 1 {
			c := remap(lb.e)
			c = c.Resized(p.NCols())
			c[1+nIn+d] = 1
			p = p.AddConstraint(presburger.Constraint{C: c, Eq: true})
		} else {
			// y_d == floor((-e + a - 1)/a)
			num := remap(lb.e).Neg()
			num[0] += lb.a - 1
			var dcol int
			p, dcol = p.AddDiv(num, lb.a)
			c := presburger.NewVec(p.NCols())
			c[1+nIn+d] = 1
			c[dcol] = -1
			p = p.AddConstraint(presburger.Constraint{C: c, Eq: true})
		}
		out = append(out, p)
	}
	return out, nil
}

// remapProjVec translates a vector over the projection's columns
// [const, keptDims..., projDivs...] into the piece's columns
// [const, in..., out..., pieceDivs...]. The kept dimensions are a prefix of
// the piece's dimensions, so dimension columns map identically; projection
// div columns are remapped via divMap (the already-imported divs).
func remapProjVec(v presburger.Vec, projDims, pieceNCols int, divMap []int) presburger.Vec {
	out := presburger.NewVec(pieceNCols)
	for j, x := range v {
		if x == 0 {
			continue
		}
		switch {
		case j == 0:
			out[0] += x
		case j <= projDims:
			out[j] += x
		default:
			out[divMap[j-1-projDims]] += x
		}
	}
	return out
}

// combineMin combines two single-valued relations into their pointwise
// lexicographic minimum: where only one is defined it is used, where both
// are defined the smaller output wins (ties go to the first relation).
//
// The expensive comparison machinery (composition with LexLT, intersection,
// domain subtraction) only runs on the overlap of the two domains: outside
// it each relation passes through unchanged. Triangular kernels overlap only
// in thin boundary wedges, so this keeps the case analysis proportional to
// the boundary instead of the whole domains.
func combineMin(f, g presburger.Map) (presburger.Map, error) {
	space := f.OutSpace()
	fDom, err := f.Domain()
	if err != nil {
		return presburger.Map{}, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	gDom, err := g.Domain()
	if err != nil {
		return presburger.Map{}, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	overlap := fDom.Intersect(gDom)
	if overlap.DefinitelyEmpty() {
		return pruneEmpty(f.Union(g)), nil
	}
	fOnly := f.IntersectDomain(fDom.Subtract(gDom))
	gOnly := g.IntersectDomain(gDom.Subtract(fDom))
	fOv := f.IntersectDomain(overlap)
	gOv := g.IntersectDomain(overlap)

	lexLT := presburger.LexLT(space)
	// f wins where f(x) < g(x): inputs for which some output of g is
	// lexicographically larger than f(x).
	fSmaller, err := fOv.ApplyRange(lexLT)
	if err != nil {
		return presburger.Map{}, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	fWinsDom, err := fSmaller.Intersect(gOv).Domain()
	if err != nil {
		return presburger.Map{}, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	gSmaller, err := gOv.ApplyRange(lexLT)
	if err != nil {
		return presburger.Map{}, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	gWinsDom, err := gSmaller.Intersect(fOv).Domain()
	if err != nil {
		return presburger.Map{}, fmt.Errorf("%w: %v", ErrUnsupported, err)
	}
	// Ties: both defined and equal outputs; keep f there. The tie domain is
	// the overlap minus both win domains.
	tieDom := overlap.Subtract(fWinsDom).Subtract(gWinsDom)

	result := pruneEmpty(fOnly.Union(gOnly).Union(fOv.IntersectDomain(fWinsDom)).Union(gOv.IntersectDomain(gWinsDom)).Union(fOv.IntersectDomain(tieDom)))
	presburger.DebugAssertMap(result, "lexmin combine")
	return result, nil
}

// pruneEmpty coalesces the union (the subtraction-heavy combination above is
// the worst basic-map amplifier of the whole pipeline; the syntactic rules
// fold its slabs back together) and drops basic maps that are detectably
// empty.
func pruneEmpty(m presburger.Map) presburger.Map {
	var keep []presburger.BasicMap
	for _, bm := range m.Coalesce().Basics() {
		if bm.DefinitelyEmpty() {
			continue
		}
		keep = append(keep, bm)
	}
	if len(keep) == 0 {
		return presburger.EmptyMap(m.InSpace(), m.OutSpace())
	}
	return presburger.MapFromBasics(keep...)
}
