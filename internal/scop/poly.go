package scop

import (
	"fmt"

	"haystack/internal/presburger"
)

// ScheduleSpaceName is the name of the common schedule space all statements
// are mapped into.
const ScheduleSpaceName = "Sched"

// ParamSpaceName is the name of the parameter space of a parametric program:
// the space the parametric cardinalities (total accesses, compulsory and
// capacity misses) live in.
const ParamSpaceName = "Params"

// PolyInfo is the polyhedral description of a program: the iteration domain,
// the schedule, and the access maps of every statement, in the form consumed
// by the cache model (section 2.4 of the paper).
//
// Statement instance spaces carry the loop variables plus a trailing access
// dimension "a" that orders the memory accesses within one statement
// execution, as described in section 3.1 ("multiple memory accesses per
// statement").
//
// For a parametric program, every space of the description (statement
// instance spaces, the schedule space, and the array spaces) additionally
// carries the program parameters as leading dimensions marked with
// presburger.Space.NParam. Every map of the description relates only tuples
// with equal parameter values, so compositions and lexicographic optima
// treat the parameters as fixed-but-unknown and the derived cardinalities
// stay symbolic in them.
type PolyInfo struct {
	Program    *Program
	Statements []*PolyStatement
	// ScheduleDim is the dimensionality of the common schedule space
	// excluding parameter dimensions: 2*maxdepth+1 position/loop dimensions
	// plus one access dimension.
	ScheduleDim int
	// Params are the program parameters, in the order they appear as leading
	// dimensions of every space of the description.
	Params []string
}

// NParam returns the number of program parameters.
func (info *PolyInfo) NParam() int { return len(info.Params) }

// ParamSpace returns the parameter space of the program: one dimension per
// program parameter, all of them marked parametric.
func (info *PolyInfo) ParamSpace() presburger.Space {
	return presburger.NewParamSpace(ParamSpaceName, len(info.Params), info.Params...)
}

// PolyStatement is the polyhedral description of one statement.
type PolyStatement struct {
	Name     string
	Instance *StatementInstance
	Space    presburger.Space // statement instance space: params + loop vars + "a"
	Domain   presburger.Set
	Schedule presburger.Map // instance space -> schedule space
	// Position is the sibling index path of the statement in the loop tree
	// (outermost first), defining the interleaving constants of the
	// schedule.
	Position []int
}

// statementsWithPositions walks the program and returns statements together
// with their position paths.
func statementsWithPositions(p *Program) []*PolyStatement {
	var out []*PolyStatement
	var walk func(nodes []Node, loops []*Loop, path []int)
	walk = func(nodes []Node, loops []*Loop, path []int) {
		for i, n := range nodes {
			childPath := append(append([]int(nil), path...), i)
			switch n := n.(type) {
			case *Loop:
				walk(n.Body, append(append([]*Loop(nil), loops...), n), childPath)
			case *Statement:
				out = append(out, &PolyStatement{
					Name:     n.Name,
					Instance: &StatementInstance{Statement: n, Loops: append([]*Loop(nil), loops...)},
					Position: childPath,
				})
			}
		}
	}
	walk(p.Root, nil, nil)
	return out
}

// BuildPoly derives the polyhedral description of the program.
func BuildPoly(p *Program) (*PolyInfo, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	stmts := statementsWithPositions(p)
	maxDepth := 0
	for _, s := range stmts {
		if d := s.Instance.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	schedDim := 2*maxDepth + 1 + 1 // interleaving/loop dims + access dim
	info := &PolyInfo{Program: p, Statements: stmts, ScheduleDim: schedDim,
		Params: append([]string(nil), p.Params...)}
	for _, ps := range stmts {
		if err := buildStatement(ps, schedDim, info.Params, p.Context); err != nil {
			return nil, err
		}
	}
	return info, nil
}

// exprToVec converts an affine expression over the program parameters and
// the statement's loop variables into a column vector over the statement
// space columns [const, params..., loopvars..., a] with the given total
// width.
func exprToVec(e Expr, params, loopVars []string, width int) (presburger.Vec, error) {
	v := presburger.NewVec(width)
	v[0] = e.Const
	for name, c := range e.Coeffs {
		if c == 0 {
			continue
		}
		found := false
		for i, pn := range params {
			if pn == name {
				v[1+i] += c
				found = true
				break
			}
		}
		if found {
			continue
		}
		for i, lv := range loopVars {
			if lv == name {
				v[1+len(params)+i] += c
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("scop: expression references unbound variable %s", name)
		}
	}
	return v, nil
}

// paramEqualities adds out-param == in-param constraints for every parameter
// dimension of a universe basic map whose input space has nIn total
// dimensions.
func paramEqualities(bm presburger.BasicMap, nParam, nIn int) presburger.BasicMap {
	w := bm.NCols()
	for i := 0; i < nParam; i++ {
		c := presburger.Constraint{C: presburger.NewVec(w), Eq: true}
		c.C[1+i] = -1
		c.C[1+nIn+i] = 1
		bm = bm.AddConstraint(c)
	}
	return bm
}

func buildStatement(ps *PolyStatement, schedDim int, params []string, context []Expr) error {
	inst := ps.Instance
	loopVars := inst.LoopVars()
	nP := len(params)
	dims := append(append(append([]string(nil), params...), loopVars...), "a")
	ps.Space = presburger.NewParamSpace(ps.Name, nP, dims...)

	// Iteration domain: context constraints over the parameters, loop bounds,
	// and the access dimension range.
	bs := presburger.UniverseBasicSet(ps.Space)
	width := bs.NCols()
	for _, ctx := range context {
		cv, err := exprToVec(ctx, params, loopVars, width)
		if err != nil {
			return err
		}
		bs = bs.AddConstraint(presburger.Constraint{C: cv})
	}
	for i, loop := range inst.Loops {
		lowers := append([]Expr{loop.Lower}, loop.ExtraLower...)
		uppers := append([]Expr{loop.Upper}, loop.ExtraUpper...)
		for _, le := range lowers {
			lower, err := exprToVec(le, params, loopVars, width)
			if err != nil {
				return err
			}
			// v_i - lower >= 0
			lo := presburger.NewVec(width)
			for j := range lo {
				lo[j] = -lower[j]
			}
			lo[1+nP+i]++
			bs = bs.AddConstraint(presburger.Constraint{C: lo})
		}
		for _, ue := range uppers {
			upper, err := exprToVec(ue, params, loopVars, width)
			if err != nil {
				return err
			}
			// upper - 1 - v_i >= 0
			hi := presburger.NewVec(width)
			copy(hi, upper)
			hi[0]--
			hi[1+nP+i]--
			bs = bs.AddConstraint(presburger.Constraint{C: hi})
		}
	}
	nAcc := int64(len(inst.Statement.Accesses))
	aCol := 1 + nP + len(loopVars)
	loA := presburger.NewVec(width)
	loA[aCol] = 1
	bs = bs.AddConstraint(presburger.Constraint{C: loA})
	hiA := presburger.NewVec(width)
	hiA[aCol] = -1
	hiA[0] = nAcc - 1
	bs = bs.AddConstraint(presburger.Constraint{C: hiA})
	ps.Domain = presburger.SetFromBasic(bs)

	// Schedule: params are forwarded unchanged, the real schedule tuple is
	// (pos0, v1, pos1, v2, ..., vd, posd, 0..., a).
	schedSpace := scheduleSpace(schedDim, params)
	bm := presburger.UniverseBasicMap(ps.Space, schedSpace)
	nIn := len(dims)
	bm = paramEqualities(bm, nP, nIn)
	w := bm.NCols()
	eqConst := func(outDim int, value int64) {
		c := presburger.Constraint{C: presburger.NewVec(w), Eq: true}
		c.C[0] = -value
		c.C[1+nIn+nP+outDim] = 1
		bm = bm.AddConstraint(c)
	}
	eqInDim := func(outDim, inDim int) {
		c := presburger.Constraint{C: presburger.NewVec(w), Eq: true}
		c.C[1+nIn+nP+outDim] = 1
		c.C[1+nP+inDim] = -1
		bm = bm.AddConstraint(c)
	}
	depth := inst.Depth()
	for k := 0; k <= depth; k++ {
		eqConst(2*k, int64(ps.Position[k]))
		if k < depth {
			eqInDim(2*k+1, k)
		}
	}
	for t := 2*depth + 1; t < schedDim-1; t++ {
		eqConst(t, 0)
	}
	eqInDim(schedDim-1, len(loopVars)) // acc = a
	ps.Schedule = presburger.MapFromBasic(bm).IntersectDomain(ps.Domain)
	return nil
}

// Schedule returns the union schedule map of the program.
func (info *PolyInfo) Schedule() presburger.UnionMap {
	u := presburger.NewUnionMap()
	for _, s := range info.Statements {
		u = u.Add(s.Schedule)
	}
	return u
}

// LineAccessMap returns the union access map at cache line granularity for
// the given line size in bytes: the innermost array dimension is replaced by
// the cache line index floor(index*elem/lineSize), assuming every innermost
// row is cache-line aligned and padded (section 3.1 of the paper).
func (info *PolyInfo) LineAccessMap(lineSize int64) presburger.UnionMap {
	return info.accessMap(lineSize)
}

// accessMap builds the access union map; lineSize == 0 selects element
// granularity.
func (info *PolyInfo) accessMap(lineSize int64) presburger.UnionMap {
	u := presburger.NewUnionMap()
	for _, ar := range info.AccessRelations(lineSize) {
		if len(ar.Map.Basics()) > 0 {
			u = u.Add(ar.Map)
		}
	}
	return u
}

// AccessRelation pairs one array reference of one statement with its
// polyhedral access relation: the statement instances (restricted to the
// iteration domain) mapped to the array elements (or cache lines) the
// reference touches. It is the per-access granularity the static verifier
// (internal/scopcheck) works at; AccessMap and LineAccessMap are the unions
// of these relations.
type AccessRelation struct {
	Statement *PolyStatement
	// AccessIndex is the position of the access within the statement (the
	// value of the trailing "a" dimension of the instance space).
	AccessIndex int
	Access      Access
	// Map relates the statement instance space to the array space. The array
	// space carries the program parameters as leading dimensions followed by
	// one dimension per array rank (the innermost replaced by the cache line
	// index when built at line granularity).
	Map presburger.Map
}

// AccessRelations returns the access relation of every array reference of
// every statement, in program order. lineSize == 0 selects element
// granularity; a positive lineSize replaces the innermost array dimension by
// the cache line index (see LineAccessMap).
func (info *PolyInfo) AccessRelations(lineSize int64) []AccessRelation {
	nP := info.NParam()
	var out []AccessRelation
	for _, ps := range info.Statements {
		loopVars := ps.Instance.LoopVars()
		nIn := nP + len(loopVars) + 1
		aCol := 1 + nP + len(loopVars)
		for accIdx, acc := range ps.Instance.Statement.Accesses {
			rank := acc.Array.Rank()
			outDims := make([]string, 0, nP+rank)
			outDims = append(outDims, info.Params...)
			for i := 0; i < rank; i++ {
				outDims = append(outDims, fmt.Sprintf("d%d", i))
			}
			if lineSize > 0 {
				outDims[len(outDims)-1] = "line"
			}
			arrSpace := presburger.NewParamSpace(acc.Array.Name, nP, outDims...)
			bm := presburger.UniverseBasicMap(ps.Space, arrSpace)
			bm = paramEqualities(bm, nP, nIn)
			w := bm.NCols()
			// a == accIdx
			ceq := presburger.Constraint{C: presburger.NewVec(w), Eq: true}
			ceq.C[aCol] = 1
			ceq.C[0] = -int64(accIdx)
			bm = bm.AddConstraint(ceq)
			for d := 0; d < rank; d++ {
				idxVec, err := exprToVec(acc.Index[d], info.Params, loopVars, w)
				if err != nil {
					// Validate() has already been run; this cannot happen.
					panic(err)
				}
				outCol := 1 + nIn + nP + d
				if lineSize == 0 || d < rank-1 {
					// out_d == subscript_d
					c := presburger.Constraint{C: presburger.NewVec(w), Eq: true}
					for j := range idxVec {
						c.C[j] = idxVec[j]
					}
					c.C[outCol] -= 1
					bm = bm.AddConstraint(c)
					continue
				}
				// Cache line dimension: L*line <= elem*subscript <= L*line + L - 1.
				lower := presburger.NewVec(w)
				for j := range idxVec {
					lower[j] = acc.Array.Elem * idxVec[j]
				}
				lower[outCol] -= lineSize
				bm = bm.AddConstraint(presburger.Constraint{C: lower})
				upper := presburger.NewVec(w)
				for j := range idxVec {
					upper[j] = -acc.Array.Elem * idxVec[j]
				}
				upper[outCol] += lineSize
				upper[0] += lineSize - 1
				bm = bm.AddConstraint(presburger.Constraint{C: upper})
			}
			out = append(out, AccessRelation{
				Statement:   ps,
				AccessIndex: accIdx,
				Access:      acc,
				Map:         presburger.MapFromBasic(bm).IntersectDomain(ps.Domain),
			})
		}
	}
	return out
}

// scheduleSpace builds the common schedule space: the program parameters
// followed by schedDim real schedule dimensions.
func scheduleSpace(schedDim int, params []string) presburger.Space {
	dims := make([]string, 0, len(params)+schedDim)
	dims = append(dims, params...)
	for i := 0; i < schedDim; i++ {
		dims = append(dims, fmt.Sprintf("t%d", i))
	}
	dims[len(dims)-1] = "acc"
	return presburger.NewParamSpace(ScheduleSpaceName, len(params), dims...)
}

// ScheduleSpace returns the common schedule space of the program.
func (info *PolyInfo) ScheduleSpace() presburger.Space {
	return scheduleSpace(info.ScheduleDim, info.Params)
}

// StatementByName returns the polyhedral statement with the given name.
func (info *PolyInfo) StatementByName(name string) (*PolyStatement, bool) {
	for _, s := range info.Statements {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}
