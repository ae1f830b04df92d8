package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"haystack/internal/budget"
	"haystack/internal/counting"
	"haystack/internal/ints"
	"haystack/internal/parwork"
	"haystack/internal/presburger"
	"haystack/internal/qpoly"
)

// capacityCounter implements Algorithm 1 of the paper: it counts, for every
// piece of the stack distance quasi-polynomials, the statement instances
// whose distance exceeds the cache capacity. Affine pieces are counted
// symbolically; non-affine pieces are first split by equalization and
// rasterization and the non-affine leaves handled by partial enumeration of
// their non-affine dimensions.
//
// The engine exploits two independent sources of structure. Count splits
// every piece first (splitFloors) and fans the split leaves, which are
// mutually independent, out over the caller's executor as one flat group;
// every worker accumulates into its own Stats, merged deterministically
// after the pool drains. And the stack distance polynomial is cache-level
// independent, so every leaf is counted and enumerated exactly once and
// classified against all cache capacities in a single pass (the paper
// evaluates one distance polynomial against multiple thresholds the same
// way, Figure 13).
type capacityCounter struct {
	opts  Options
	stats *Stats
}

func newCapacityCounter(opts Options, stats *Stats) *capacityCounter {
	return &capacityCounter{opts: opts, stats: stats}
}

// capacityResult is the outcome of one hierarchy count: per cache level, the
// per-statement point counts (certified upper bounds wherever a leaf
// degraded), the certified interval enclosing the level's capacity misses,
// and the provenance of every degraded leaf (empty for fully exact runs,
// in which case each bounds entry has width zero).
type capacityResult struct {
	perStmt  []map[string]int64
	bounds   []counting.Interval
	degraded []string
}

// capacityWorkItem is one unit of parallel work: one split leaf of a piece
// of one statement's distance polynomial, counted against every cache
// capacity.
type capacityWorkItem struct {
	stmt int
	leaf splitPiece
}

// Count returns, for every capacity in cacheLines (in lines), the
// per-statement capacity miss counts together with a certified interval per
// level. Every distance piece is split by floor elimination first; the
// leaves fan out over ex, every leaf is counted under its own operation of
// meter (nil = unlimited), and workers stop claiming leaves once ctx is
// cancelled. In exact mode any failing leaf fails the count; under
// ModeBounded a leaf whose exact count degraded (budget or solver limits)
// contributes certified interval bounds instead and the count succeeds.
// Cancellation always aborts.
func (cc *capacityCounter) Count(ctx context.Context, ex parwork.Exec, meter *budget.Meter, distances []StatementDistance, cacheLines []int64) (capacityResult, error) {
	out := capacityResult{
		perStmt: make([]map[string]int64, len(cacheLines)),
		bounds:  make([]counting.Interval, len(cacheLines)),
	}
	for l := range out.perStmt {
		out.perStmt[l] = map[string]int64{}
		for _, sd := range distances {
			out.perStmt[l][sd.Statement] = 0
		}
	}
	if len(cacheLines) == 0 {
		// No capacities to classify against: skip the split and the pool.
		return out, nil
	}
	// The prologue classifies the unsplit pieces and splits each into its
	// leaves. Its statistics join cc.stats only once the count succeeded,
	// like the workers'.
	split := Stats{NonAffineByAffineDims: map[int]int{}}
	var items []capacityWorkItem
	for si, sd := range distances {
		for _, piece := range sd.Distance.Pieces {
			if piece.Poly.Degree() <= 1 {
				split.AffinePieces++
			} else {
				split.NonAffinePieces++
				split.NonAffineByAffineDims[affineDims(piece.Domain, piece.Poly)]++
			}
			for _, leaf := range splitFloors(cc.opts, piece.Domain, piece.Poly, &split) {
				items = append(items, capacityWorkItem{stmt: si, leaf: leaf})
			}
		}
	}
	if len(items) == 0 {
		// Nothing to count: skip the pool entirely and report zero workers.
		return out, nil
	}
	bounded := cc.opts.Mode == ModeBounded
	workers := ex.Workers()
	results := make([][]int64, len(items))
	itemBounds := make([][]counting.Interval, len(items))
	itemReasons := make([]string, len(items))
	// Schedule the leaves hardest-first (non-affine polynomials and busy
	// domains cost orders of magnitude more than affine ones), so the pool
	// does not stall on one giant leaf picked up last. The permutation only
	// affects execution order: results land at their item index and the
	// accumulation below walks items in canonical order, so totals are
	// bit-identical for every worker count.
	weights := make([]int, len(items))
	for i, it := range items {
		w := len(it.leaf.domain.Constraints()) + 2*len(it.leaf.domain.Divs())
		if it.leaf.poly.Degree() > 1 {
			w += 1000 * len(it.leaf.poly.Terms)
		}
		weights[i] = w
	}
	order := parwork.HardestFirst(weights)
	// Every worker counts through its own capacityCounter so the pool never
	// contends on statistics; the per-worker Stats are merged below.
	workerStats := make([]Stats, workers)
	counters := make([]*capacityCounter, workers)
	for w := range counters {
		workerStats[w].NonAffineByAffineDims = map[int]int{}
		counters[w] = newCapacityCounter(cc.opts, &workerStats[w])
	}
	ps0 := ex.PoolStats()
	workerTimes, err := ex.RunGroupTimed(ctx, len(items), func(w *parwork.Worker, scheduled int) error {
		idx := order[scheduled]
		leaf := items[idx].leaf
		stmt := distances[items[idx].stmt].Statement
		c := counters[w.ID()]
		op := meter.Op("capacity piece of " + stmt)
		counts, err := c.countPiece(leaf.domain, leaf.poly, cacheLines, op)
		if err == nil {
			results[idx] = counts
			return nil
		}
		if !bounded || budget.IsCancellation(err) {
			return fmt.Errorf("core: counting capacity misses of %s: %w", stmt, err)
		}
		// Bounded tier: the exact count of this one leaf degraded; answer
		// it with certified interval bounds instead of failing the analysis.
		ivs, berr := c.boundPiece(leaf.domain, leaf.poly, cacheLines, op)
		if berr != nil {
			return fmt.Errorf("core: bounding capacity misses of %s: %w", stmt, berr)
		}
		itemBounds[idx] = ivs
		itemReasons[idx] = fmt.Sprintf("%s: capacity piece bounded (%v)", stmt, err)
		return nil
	})
	ps1 := ex.PoolStats()
	cc.stats.Steals += ps1.Steals - ps0.Steals
	cc.stats.Splits += ps1.Splits - ps0.Splits

	if err != nil {
		// On failure the set of completed leaves depends on scheduling, so
		// the partial statistics are discarded: callers that fall back to
		// trace profiling keep deterministic stats.
		return capacityResult{}, err
	}

	// Merge the prologue's and the per-worker statistics in worker order;
	// every counter is additive, so the merged values do not depend on how
	// the scheduler distributed the leaves.
	cc.stats.merge(&split)
	for w := range workerStats {
		cc.stats.merge(&workerStats[w])
	}
	// A caller may count several distance sets into one Stats (Eval counts
	// its residual pieces, then each capacity's extra pieces): busy times
	// accumulate per worker.
	cc.stats.CapacityWorkers = len(workerTimes)
	if len(cc.stats.CapacityWorkerTime) == len(workerTimes) {
		for w, d := range workerTimes {
			cc.stats.CapacityWorkerTime[w] += d
		}
	} else {
		cc.stats.CapacityWorkerTime = workerTimes
	}

	// Fold the per-item results in canonical item order so totals and bounds
	// stay bit-identical for every worker count. Exact leaves contribute
	// width-zero intervals; degraded leaves contribute their certified
	// bounds, with the conservative upper bound as the point value.
	for idx := range items {
		stmt := distances[items[idx].stmt].Statement
		if counts := results[idx]; counts != nil {
			for l, n := range counts {
				out.perStmt[l][stmt] += n
				out.bounds[l] = out.bounds[l].Add(counting.Exact(n))
			}
			continue
		}
		for l, iv := range itemBounds[idx] {
			out.perStmt[l][stmt] = ints.SatAdd(out.perStmt[l][stmt], iv.Hi)
			out.bounds[l] = out.bounds[l].Add(iv)
		}
		out.degraded = append(out.degraded, itemReasons[idx])
	}
	return out, nil
}

// boundPiece computes certified bounds on the capacity misses of a piece
// whose exact count degraded. The lower bound evaluates the distance
// polynomial at every point of the domain's enumeration prefix
// (counting.ScanPrefix; every counted point is a genuine miss); a complete
// prefix makes the result exact.
// The upper bound is the bounding-box volume of the domain (the misses are a
// subset of the piece), refined by interval arithmetic on the polynomial
// over the box: a range maximum at or below the capacity certifies zero
// misses. Only cancellation can fail.
func (cc *capacityCounter) boundPiece(domain presburger.BasicSet, poly qpoly.QPoly, capacities []int64, op *budget.Op) ([]counting.Interval, error) {
	los := make([]int64, len(capacities))
	complete, err := counting.ScanPrefix(presburger.SetFromBasic(domain), op, func(point []int64) {
		v := poly.Eval(point)
		for i, capacity := range capacities {
			if v.Cmp(ints.RatInt(capacity)) > 0 {
				los[i]++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if complete {
		ivs := make([]counting.Interval, len(capacities))
		for i, n := range los {
			ivs[i] = counting.Exact(n)
		}
		return ivs, nil
	}
	boxHi, boxOK := counting.BoxCountUpper(domain)
	var rmax ints.Rat
	rangeOK := false
	if blo, bhi, ok := counting.BoxBounds(domain); ok {
		_, rmax, rangeOK = poly.RangeOnBox(blo, bhi)
	}
	ivs := make([]counting.Interval, len(capacities))
	for i, capacity := range capacities {
		iv := counting.Interval{Lo: los[i], Hi: math.MaxInt64}
		switch {
		case rangeOK && rmax.Cmp(ints.RatInt(capacity)) <= 0:
			// No point of the piece can exceed this capacity.
			iv = counting.Exact(0)
		case boxOK:
			iv.Hi = boxHi
		}
		if iv.Hi < iv.Lo {
			iv.Hi = iv.Lo
		}
		ivs[i] = iv
	}
	return ivs, nil
}

// countPiece counts, per capacity, the points of one split leaf whose stack
// distance polynomial exceeds that capacity: symbolically when the
// polynomial is affine, else by partial enumeration and, where that fails
// short of the budget, by full enumeration. The leaf is enumerated once;
// only the final classification compares against the individual capacities.
func (cc *capacityCounter) countPiece(domain presburger.BasicSet, poly qpoly.QPoly, capacities []int64, op *budget.Op) ([]int64, error) {
	if poly.Degree() <= 1 {
		return cc.countAffinePiece(domain, poly, capacities, op)
	}
	// Partial enumeration (section 3.2).
	if cc.opts.PartialEnumeration {
		n, err := cc.partialEnumeration(domain, poly, capacities, op)
		if err == nil {
			return n, nil
		}
		if errors.Is(err, budget.ErrExceeded) || budget.IsCancellation(err) {
			// A budget trip or cancellation must not fall through to full
			// enumeration — that would re-spend the already exhausted budget.
			return nil, err
		}
	}
	return cc.fullEnumeration(domain, poly, capacities, op)
}

func addCounts(dst, src []int64) {
	for i, n := range src {
		dst[i] += n
	}
}

// affineDims counts the dimensions of the piece that the polynomial depends
// on at most affinely (the dimensions partial enumeration can keep
// symbolic); used for the Table 1 statistic.
func affineDims(domain presburger.BasicSet, poly qpoly.QPoly) int {
	return max(domain.NDim()-len(chooseEnumerationDims(poly)), 0)
}

// countAffinePiece counts the points of the piece with distance > capacity
// symbolically (countAffinePiece of Algorithm 1), for every capacity.
func (cc *capacityCounter) countAffinePiece(domain presburger.BasicSet, poly qpoly.QPoly, capacities []int64, op *budget.Op) ([]int64, error) {
	cc.stats.CountedPieces++
	counts := make([]int64, len(capacities))
	if c, ok := poly.IsConstant(); ok {
		// Constant distance: either every point of the piece misses or none.
		// The piece is counted at most once, no matter how many capacities it
		// exceeds.
		var n int64
		counted := false
		for i, capacity := range capacities {
			if c.Cmp(ints.RatInt(capacity)) <= 0 {
				continue
			}
			if !counted {
				var err error
				if n, err = counting.CountSet(presburger.SetFromBasic(domain), op); err != nil {
					return nil, err
				}
				counted = true
			}
			counts[i] = n
		}
		return counts, nil
	}
	// The miss sets are nested: a distance exceeding a capacity exceeds every
	// smaller one, so counts are non-increasing in the capacity. Counting in
	// ascending capacity order lets a zero count settle every larger capacity
	// at once — the dominant case for outer cache levels.
	order := make([]int, len(capacities))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return capacities[order[a]] < capacities[order[b]] })
	for oi, i := range order {
		capacity := capacities[i]
		if oi > 0 && counts[order[oi-1]] == 0 {
			break // counts for all remaining (larger) capacities are zero
		}
		missSet, ok, err := trimmedMissSet(domain, poly, capacity)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		n, err := counting.CountSet(presburger.SetFromBasic(missSet), op)
		if err != nil {
			return nil, err
		}
		counts[i] = n
	}
	return counts, nil
}

// trimmedMissSet is the miss set of an affine piece at one capacity as both
// the capacity counter and the parametric model count it: affineMissSet
// with its redundant constraints removed. Parallel and implied bounds
// multiply the fan-out of a symbolic count (every lower/upper bound pair of
// a summed dimension becomes a piece, and any div-referenced dimension is
// residue-split), and trimming them is routinely a 10x-plus on pieces whose
// domains inherited constraints from the composition pipeline. ok is false
// when the set is detectably empty — routinely so for the outer cache
// levels, where rational infeasibility is far cheaper to establish than the
// symbolic summation.
func trimmedMissSet(domain presburger.BasicSet, poly qpoly.QPoly, capacity int64) (presburger.BasicSet, bool, error) {
	missSet, err := affineMissSet(domain, poly, capacity)
	if err != nil {
		return presburger.BasicSet{}, false, err
	}
	trimmed, ok := missSet.RemoveRedundancies()
	if !ok || trimmed.DefinitelyEmpty() {
		return presburger.BasicSet{}, false, nil
	}
	return trimmed, true, nil
}

// affineMissSet intersects the domain with the constraint poly > capacity.
// The polynomial must be affine (degree <= 1); its floor atoms become div
// variables of the resulting basic set.
func affineMissSet(domain presburger.BasicSet, poly qpoly.QPoly, capacity int64) (presburger.BasicSet, error) {
	if poly.Degree() > 1 {
		return presburger.BasicSet{}, fmt.Errorf("core: affineMissSet called with degree %d", poly.Degree())
	}
	// Common denominator of the coefficients.
	lcm := int64(1)
	for _, t := range poly.Terms {
		lcm = ints.LCM(lcm, t.Coef.Den())
	}
	out := domain
	// Map atoms of the polynomial to div columns of the basic set.
	atomCol := make([]int, len(poly.Atoms))
	for i := range atomCol {
		atomCol[i] = -1
	}
	var ensureAtom func(idx int) (int, error)
	ensureAtom = func(idx int) (int, error) {
		if atomCol[idx] >= 0 {
			return atomCol[idx], nil
		}
		a := poly.Atoms[idx]
		num := presburger.NewVec(out.NCols())
		for j, c := range a.Num {
			if c == 0 {
				continue
			}
			switch {
			case j == 0:
				num[0] += c
			case j <= poly.NVar:
				num[j] += c
			default:
				col, err := ensureAtom(j - 1 - poly.NVar)
				if err != nil {
					return 0, err
				}
				num = num.Resized(out.NCols())
				num[col] += c
			}
		}
		var col int
		out, col = out.AddDiv(num, a.Den)
		atomCol[idx] = col
		return col, nil
	}
	// Build lcm*poly - lcm*(capacity+1) >= 0.
	vec := presburger.NewVec(out.NCols())
	for _, t := range poly.Terms {
		coef := t.Coef.Mul(ints.RatInt(lcm))
		if !coef.IsInt() {
			return presburger.BasicSet{}, fmt.Errorf("core: non-integer scaled coefficient %v", coef)
		}
		col := 0
		count := 0
		for j, e := range t.Pow {
			if e > 0 {
				col = j
				count += e
			}
		}
		switch count {
		case 0:
			vec[0] += coef.Int()
		case 1:
			if col < poly.NVar {
				vec = vec.Resized(out.NCols())
				vec[1+col] += coef.Int()
			} else {
				dcol, err := ensureAtom(col - poly.NVar)
				if err != nil {
					return presburger.BasicSet{}, err
				}
				vec = vec.Resized(out.NCols())
				vec[dcol] += coef.Int()
			}
		default:
			return presburger.BasicSet{}, fmt.Errorf("core: non-affine term in affineMissSet")
		}
	}
	vec = vec.Resized(out.NCols())
	vec[0] -= lcm * (capacity + 1)
	return out.AddConstraint(presburger.Constraint{C: vec}), nil
}

// partialEnumeration enumerates the values of the non-affine dimensions and
// counts the remaining affine dimensions symbolically. The enumeration and
// the per-point domain/polynomial specialization are shared by all
// capacities. Binding a point can open new floor-elimination splits, so
// every bound piece is split (serially, under the leaf's operation) before
// its leaves are counted.
func (cc *capacityCounter) partialEnumeration(domain presburger.BasicSet, poly qpoly.QPoly, capacities []int64, op *budget.Op) ([]int64, error) {
	enumDims := chooseEnumerationDims(poly)
	if len(enumDims) == 0 || len(enumDims) >= domain.NDim() {
		return nil, fmt.Errorf("core: no profitable partial enumeration split")
	}
	enumDomain := projectOnto(domain, enumDims)
	total := make([]int64, len(capacities))
	err := enumDomain.Scan(func(point []int64) error {
		if err := op.Charge(1); err != nil {
			return err
		}
		cc.stats.PartialEnumerationPoints++
		boundDomain := domain
		boundPoly := poly
		for i, d := range enumDims {
			boundDomain = boundDomain.FixDim(d, point[i])
			boundPoly = boundPoly.BindVar(d, point[i])
		}
		for _, leaf := range splitFloors(cc.opts, boundDomain, boundPoly, cc.stats) {
			n, err := cc.countPiece(leaf.domain, leaf.poly, capacities, op)
			if err != nil {
				return err
			}
			addCounts(total, n)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}

// fullEnumeration walks every point of the piece and evaluates the
// polynomial (the last resort of Algorithm 1). Every point is evaluated once
// and the value classified against all capacities.
func (cc *capacityCounter) fullEnumeration(domain presburger.BasicSet, poly qpoly.QPoly, capacities []int64, op *budget.Op) ([]int64, error) {
	cc.stats.CountedPieces++
	total := make([]int64, len(capacities))
	err := domain.Scan(func(point []int64) error {
		if err := op.Charge(1); err != nil {
			return err
		}
		cc.stats.FullEnumerationPoints++
		v := poly.Eval(point)
		for i, capacity := range capacities {
			if v.Cmp(ints.RatInt(capacity)) > 0 {
				total[i]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}

// chooseEnumerationDims greedily selects the dimensions to enumerate: while
// the polynomial restricted to the remaining dimensions is non-affine, the
// dimension involved in the largest number of non-affine terms is added to
// the enumeration set.
func chooseEnumerationDims(poly qpoly.QPoly) []int {
	chosen := map[int]bool{}
	for {
		counts := make(map[int]int)
		nonAffine := false
		for _, t := range poly.Terms {
			deg := 0
			var varsInTerm []int
			for j, e := range t.Pow {
				if e == 0 {
					continue
				}
				vars := columnVars(poly, j)
				free := false
				for _, v := range vars {
					if !chosen[v] {
						free = true
					}
				}
				if free {
					deg += e
					for _, v := range vars {
						if !chosen[v] {
							varsInTerm = append(varsInTerm, v)
						}
					}
				}
			}
			if deg > 1 {
				nonAffine = true
				for _, v := range varsInTerm {
					counts[v]++
				}
			}
		}
		if !nonAffine {
			break
		}
		best, bestCount := -1, -1
		for v, c := range counts {
			if c > bestCount || (c == bestCount && v < best) {
				best, bestCount = v, c
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
	}
	return slices.Sorted(maps.Keys(chosen))
}

// columnVars returns the variables a power column of the polynomial depends
// on: the variable itself for a variable column, the (transitive) variables
// of the atom argument for an atom column.
func columnVars(poly qpoly.QPoly, col int) []int {
	if col < poly.NVar {
		return []int{col}
	}
	var out []int
	for v := 0; v < poly.NVar; v++ {
		for _, idx := range poly.AtomsDependingOnVar(v) {
			if idx == col-poly.NVar {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// projectOnto projects the domain onto the selected dimensions (in order) by
// eliminating every other dimension with ProjectOutApprox, which is exact
// where it can be and over-approximates otherwise: the result is only used
// to generate candidate values that are validated against the exact domain,
// so a superset merely wastes a few empty iterations while keeping partial
// enumeration available (the alternative is full enumeration of the piece).
func projectOnto(domain presburger.BasicSet, dims []int) presburger.BasicSet {
	keep := map[int]bool{}
	for _, d := range dims {
		keep[d] = true
	}
	out := domain
	// Eliminate from the highest index so earlier indices stay valid.
	for d := domain.NDim() - 1; d >= 0; d-- {
		if keep[d] {
			continue
		}
		out = out.ProjectOutApprox(d, 1)
	}
	return out
}
