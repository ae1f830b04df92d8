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
// subtracting domains. Both stages run on a parwork executor: one item per
// basic map for the minima, one item per chamber (a group of candidates
// whose domains may overlap) for the combination. Relations outside the
// supported quasi-affine fragment report ErrUnsupported so callers can fall
// back to enumeration.
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
// folded in independent chambers and the chamber results are concatenated
// in chamber order. Cross-chamber combineMin calls would degenerate to plain
// unions, so skipping them changes nothing semantically while removing the
// all-pairs subtraction cascade that made triangular kernels intractable.
// Each chamber folds its candidates sequentially in their original order.
func MapLexmin(m presburger.Map) (presburger.Map, error) {
	return mapLexmin(context.Background(), m, parwork.InlineExec())
}

func mapLexmin(ctx context.Context, m presburger.Map, ex parwork.Exec) (presburger.Map, error) {
	candidates, err := lexminCandidates(ctx, m, ex)
	if err != nil {
		return presburger.Map{}, err
	}
	// One work item per chamber; RunGroup claims items in index order and
	// reports the lowest-index failure, so a failing fold reports the error
	// a sequential fold over the chambers would.
	chambers := partitionByDomain(candidates)
	folded := make([]presburger.Map, len(chambers))
	err = ex.RunGroup(ctx, len(chambers), func(_ *parwork.Worker, idx int) error {
		f, err := foldMin(ctx, chambers[idx])
		folded[idx] = f
		return err
	})
	if err != nil {
		return presburger.Map{}, err
	}
	var basics []presburger.BasicMap
	for _, f := range folded {
		basics = append(basics, f.Basics()...)
	}
	if len(basics) == 0 {
		return presburger.EmptyMap(m.InSpace(), m.OutSpace()), nil
	}
	result := presburger.MapFromBasics(basics...)
	presburger.DebugAssertMap(result, "lexmin")
	return result, nil
}

// lexminCandidates computes the lexicographic minimum of every basic map of
// m on the executor: one candidate relation per basic map with a nonempty
// minimum, in basic-map order.
func lexminCandidates(ctx context.Context, m presburger.Map, ex parwork.Exec) ([]presburger.Map, error) {
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
		return nil, err
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
	return candidates, nil
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

// partitionByDomain groups the candidates into chambers whose domains can
// overlap; candidates in different chambers are provably disjoint (every
// basic-map pair across them has separating domain signatures,
// presburger.BasicMap.DomainSignature). The partition is conservative (a
// pair that cannot cheaply be separated lands in the same chamber, which
// only costs combineMin work) and deterministic: chambers are ordered by
// their smallest candidate index and keep the original candidate order.
func partitionByDomain(candidates []presburger.Map) [][]presburger.Map {
	if len(candidates) <= 1 {
		return [][]presburger.Map{candidates}
	}
	sigs := make([][]presburger.Signature, len(candidates))
	for i, c := range candidates {
		for _, bm := range c.Basics() {
			sigs[i] = append(sigs[i], bm.DomainSignature())
		}
	}
	var groups [][]presburger.Map
	for _, idxs := range presburger.GroupDisjoint(sigs) {
		group := make([]presburger.Map, len(idxs))
		for k, i := range idxs {
			group[k] = candidates[i]
		}
		groups = append(groups, group)
	}
	return groups
}

// MapLexmaxExec returns the relation mapping every input point of m to the
// lexicographically largest related output point, with the per-basic-map
// maxima and the per-chamber folds scheduled on the given executor. When ex
// is a Worker inside a running pool, the basic maps and the chambers become
// splittable work units that idle workers steal. The computation checks ctx
// between basic maps, between chambers, between fold steps, and between the
// output dimensions of each per-basic-map extremum, and returns the context
// error promptly. Each chamber folds sequentially in the original candidate
// order and the chambers are joined in chamber order (see MapLexmin), so the
// result is bit-identical for every executor shape.
func MapLexmaxExec(ctx context.Context, m presburger.Map, ex parwork.Exec) (presburger.Map, error) {
	neg := negateOutputs(m)
	mn, err := mapLexmin(ctx, neg, ex)
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
	// Import the divs of the projection so bound expressions can refer to
	// them; remap their columns onto the piece.
	withDivs := piece
	divMap := make([]int, len(divs))
	for i, dv := range divs {
		num := remapProjVec(dv.Num.Resized(ncols), keep, withDivs.NCols(), divMap[:i])
		withDivs, divMap[i] = withDivs.AddDiv(num, dv.Den)
	}
	// The lower bounds a*y_d + e >= 0 (a > 0) over the piece's columns; the
	// dimension columns of the projection are a prefix of the piece's, so
	// y_d keeps its column.
	var lowers []presburger.Constraint
	for _, c := range cons {
		if c.C.At(col) > 0 {
			lowers = append(lowers, presburger.Constraint{C: remapProjVec(c.C.Resized(ncols), keep, withDivs.NCols(), divMap)})
		}
	}
	if len(lowers) == 0 {
		return nil, fmt.Errorf("%w: output dimension %d has no lower bound", ErrUnsupported, d)
	}
	var out []presburger.BasicMap
	for li, lb := range lowers {
		// Dominance constraints: the chosen bound is the maximum.
		dom, err := presburger.BoundDominance(lowers, col, li, withDivs.NCols())
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnsupported, err)
		}
		p := withDivs
		for _, c := range dom {
			p = p.AddConstraint(c)
		}
		// Pin y_d to ceil(-e/a).
		if a := lb.C[col]; a == 1 {
			p = p.AddConstraint(presburger.Constraint{C: lb.C, Eq: true})
		} else {
			// y_d == floor((-e + a - 1)/a)
			num := lb.C.Neg()
			num[col] = 0
			num[0] += a - 1
			var dcol int
			p, dcol = p.AddDiv(num, a)
			c := presburger.NewVec(p.NCols())
			c[col] = 1
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
