package scop

import (
	"fmt"

	"haystack/internal/presburger"
)

// This file derives the set-index structure of a set-associative cache over
// the padded array layout the analytical model assumes: the cache set of a
// line is set(line) = gline mod numSets, where gline is the global line
// address of the padded layout. Under LayoutPadded every outer stride and
// every array base is a multiple of the line size, so
//
//	gline = base/L + sum_{d<rank-1} (stride_d/L)·idx_d + floor(elem·idx_last/L)
//
// is an affine function of the array coordinates (the trailing term is the
// "line" dimension of the line-granularity array space), and the residue
// constraint gline ≡ s (mod numSets) is expressible with one local div.

// lineAddress is the padded-layout line addressing of one array: the base
// address and the outer-dimension strides, both in units of cache lines.
type lineAddress struct {
	baseLine int64
	// lineStrides has one entry per non-innermost array dimension.
	lineStrides []int64
}

// SetPartition partitions the cache lines of a concrete program among the
// numSets sets of a set-associative cache, exposing each set's lines as a
// residue Set over the line-granularity array spaces and each statement's
// instances by the set their own access falls into. It is the bridge between
// the fully-associative stack-distance machinery and set-associative
// counting: restricted to one set's lines, the distance polynomial counts
// exactly the within-set stack distance.
type SetPartition struct {
	info     *PolyInfo
	lineSize int64
	numSets  int64
	addr     map[string]lineAddress
}

// SetPartition builds the set-index structure for a cache with numSets sets
// at the given line size. The program must be concrete (a parametric program
// has no fixed layout, hence no set-index map).
func (info *PolyInfo) SetPartition(lineSize, numSets int64) (*SetPartition, error) {
	if lineSize <= 0 {
		return nil, fmt.Errorf("scop: set partition needs a positive line size, got %d", lineSize)
	}
	if numSets <= 0 {
		return nil, fmt.Errorf("scop: set partition needs a positive set count, got %d", numSets)
	}
	if info.Program.IsParametric() {
		return nil, fmt.Errorf("scop: program %s is parametric; the set-index map needs a concrete layout", info.Program.Name)
	}
	layout := NewLayout(info.Program, LayoutPadded, lineSize)
	sp := &SetPartition{info: info, lineSize: lineSize, numSets: numSets, addr: map[string]lineAddress{}}
	for _, a := range info.Program.Arrays {
		base := layout.Base(a)
		strides := layout.Strides(a)
		if base%lineSize != 0 {
			return nil, fmt.Errorf("scop: array %s base %d not line aligned", a.Name, base)
		}
		la := lineAddress{baseLine: base / lineSize}
		for d := 0; d < a.Rank()-1; d++ {
			if strides[d]%lineSize != 0 {
				return nil, fmt.Errorf("scop: array %s stride %d of dim %d not line aligned (padded layout expected)", a.Name, strides[d], d)
			}
			la.lineStrides = append(la.lineStrides, strides[d]/lineSize)
		}
		sp.addr[a.Name] = la
	}
	return sp, nil
}

// ArrayResidue returns the subset of the given line-granularity array space
// (outer dimensions plus the trailing "line" dimension, as produced by
// LineAccessMap) whose lines map to cache set s. The numSets residues
// partition every array.
func (sp *SetPartition) ArrayResidue(space presburger.Space, s int64) (presburger.Set, error) {
	la, ok := sp.addr[space.Name]
	if !ok {
		return presburger.Set{}, fmt.Errorf("scop: space %s is not an array of the program", space.Name)
	}
	if space.Dim() != len(la.lineStrides)+1 {
		return presburger.Set{}, fmt.Errorf("scop: array space %v has %d dims, line addressing expects %d",
			space, space.Dim(), len(la.lineStrides)+1)
	}
	// gline = baseLine + lineStrides·outer + 1·line over [const, dims...].
	expr := presburger.NewVec(1 + space.Dim())
	expr[0] = la.baseLine
	for d, stride := range la.lineStrides {
		expr[1+d] = stride
	}
	expr[space.Dim()] = 1
	return presburger.ResidueSet(space, expr, sp.numSets, s), nil
}

// StatementSetDomain returns the instances of the statement (points of its
// instance space, including the trailing access dimension) whose own access
// touches a line of cache set s. Restricting a statement's touched-line maps
// to this domain classifies exactly the accesses the set-s partition is
// responsible for.
//
// The set membership is phrased with a single local div over the affine byte
// address F of the access: floor(F/L) ≡ s (mod numSets) iff
// s·L ≤ F − numSets·L·u < (s+1)·L for u = floor(F/(numSets·L)). The interval
// form keeps the divs flat (no div-of-div) and avoids modulo equalities,
// which the piecewise merges downstream handle far better.
func (sp *SetPartition) StatementSetDomain(stmt string, s int64) (presburger.Set, error) {
	ps, ok := sp.info.StatementByName(stmt)
	if !ok {
		return presburger.Set{}, fmt.Errorf("scop: unknown statement %s", stmt)
	}
	loopVars := ps.Instance.LoopVars()
	aCol := 1 + len(loopVars)
	dom := presburger.EmptySet(ps.Space)
	for accIdx, acc := range ps.Instance.Statement.Accesses {
		la := sp.addr[acc.Array.Name]
		bs := presburger.UniverseBasicSet(ps.Space)
		w := bs.NCols()
		// a == accIdx
		ca := presburger.Constraint{C: presburger.NewVec(w), Eq: true}
		ca.C[aCol] = 1
		ca.C[0] = -int64(accIdx)
		bs = bs.AddConstraint(ca)
		// F = byte address of the access: an affine expression of the loop
		// variables under the padded layout.
		rank := acc.Array.Rank()
		f := presburger.NewVec(w)
		f[0] = la.baseLine * sp.lineSize
		for d := 0; d < rank-1; d++ {
			idxVec, err := exprToVec(acc.Index[d], nil, loopVars, w)
			if err != nil {
				return presburger.Set{}, err
			}
			for j := range idxVec {
				f[j] += la.lineStrides[d] * sp.lineSize * idxVec[j]
			}
		}
		lastVec, err := exprToVec(acc.Index[rank-1], nil, loopVars, w)
		if err != nil {
			return presburger.Set{}, err
		}
		for j := range lastVec {
			f[j] += acc.Array.Elem * lastVec[j]
		}
		bs, u := bs.AddDiv(f, sp.numSets*sp.lineSize)
		wu := bs.NCols()
		// s·L ≤ F − numSets·L·u  and  F − numSets·L·u ≤ (s+1)·L − 1.
		lo := presburger.Constraint{C: presburger.NewVec(wu)}
		hi := presburger.Constraint{C: presburger.NewVec(wu)}
		for j := range f {
			lo.C[j] = f[j]
			hi.C[j] = -f[j]
		}
		lo.C[u] -= sp.numSets * sp.lineSize
		hi.C[u] += sp.numSets * sp.lineSize
		lo.C[0] -= s * sp.lineSize
		hi.C[0] += (s+1)*sp.lineSize - 1
		dom = dom.Union(presburger.SetFromBasic(bs.AddConstraint(lo).AddConstraint(hi)))
	}
	return dom.Intersect(ps.Domain), nil
}
