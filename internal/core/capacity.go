package core

import (
	"context"
	"errors"
	"fmt"
	"math"
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
// symbolically; non-affine pieces are first simplified by equalization and
// rasterization and finally handled by partial enumeration of their
// non-affine dimensions.
//
// The engine exploits two independent sources of structure. Pieces are
// mutually independent, so they are fanned out over a pool of worker
// goroutines (Options.Parallelism); every worker accumulates into its own
// Stats, merged deterministically after the pool drains. And the stack
// distance polynomial is cache-level independent, so every piece is split,
// equalized, rasterized, and enumerated exactly once and the resulting
// sub-pieces are classified against all cache capacities in a single pass
// (the paper evaluates one distance polynomial against multiple thresholds
// the same way, Figure 13).
type capacityCounter struct {
	opts  Options
	stats *Stats
	// meter and ctx wire the counter into the degradation ladder: every
	// piece is counted under its own budgeted operation (per-operation
	// limits keep bounded results bit-identical across worker counts) and
	// workers stop claiming pieces once ctx is cancelled. Both are optional;
	// nil means unlimited and uncancellable, matching the legacy behaviour.
	meter *budget.Meter
	ctx   context.Context
	// exec is the caller-supplied executor for the piece fan-out (nil means
	// Count builds a transient one from the options).
	exec parwork.Exec
	// The fields below exist only on the per-worker counters Count builds.
	// w is the pool worker currently driving this counter (each counter is
	// only ever used from its worker's goroutine); siblings is the full
	// per-worker counter array, so a spawned sub-group item can pick the
	// counter of whichever worker stole it; spawnOK gates chamber-level
	// sub-piece spawning (exact mode with an unlimited meter only — a
	// budgeted or bounded count keeps its strictly serial, deterministic
	// per-operation accounting).
	w        *parwork.Worker
	siblings []*capacityCounter
	spawnOK  bool
}

func newCapacityCounter(opts Options, stats *Stats) *capacityCounter {
	return &capacityCounter{opts: opts, stats: stats}
}

// capacityResult is the outcome of one hierarchy count: per cache level, the
// per-statement point counts (certified upper bounds wherever a piece
// degraded), the certified interval enclosing the level's capacity misses,
// and the provenance of every degraded piece (empty for fully exact runs,
// in which case each bounds entry has width zero).
type capacityResult struct {
	perStmt  []map[string]int64
	bounds   []counting.Interval
	degraded []string
}

// capacityWorkItem is one unit of parallel work: a single piece of one
// statement's distance polynomial, counted against every cache capacity.
type capacityWorkItem struct {
	stmt  int
	piece qpoly.Piece
}

// Count returns, for every capacity in cacheLines (in lines), the
// per-statement capacity miss counts together with a certified interval per
// level. In exact mode any failing piece fails the count; under ModeBounded
// a piece whose exact count degraded (budget or solver limits) contributes
// certified interval bounds instead and the count succeeds. Cancellation
// always aborts.
func (cc *capacityCounter) Count(distances []StatementDistance, cacheLines []int64) (capacityResult, error) {
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
	var items []capacityWorkItem
	for si, sd := range distances {
		for _, piece := range sd.Distance.Pieces {
			items = append(items, capacityWorkItem{stmt: si, piece: piece})
		}
	}
	if len(items) == 0 || len(cacheLines) == 0 {
		// Nothing to count (or no capacities to classify against): skip the
		// pool entirely and report zero workers.
		return out, nil
	}
	ctx := cc.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	bounded := cc.opts.Mode == ModeBounded
	ex := cc.exec
	release := func() {}
	if ex == nil {
		ex, release = cc.opts.executor()
	}
	defer release()
	workers := ex.Workers()
	results := make([][]int64, len(items))
	itemBounds := make([][]counting.Interval, len(items))
	itemReasons := make([]string, len(items))
	// Schedule the pieces hardest-first (non-affine polynomials and busy
	// domains cost orders of magnitude more than affine ones), so the pool
	// does not stall on one giant piece picked up last. The permutation only
	// affects execution order: results land at their item index and the
	// accumulation below walks items in canonical order, so totals are
	// bit-identical for every worker count.
	weights := make([]int, len(items))
	for i, it := range items {
		w := len(it.piece.Domain.Constraints()) + 2*len(it.piece.Domain.Divs())
		if it.piece.Poly.Degree() > 1 {
			w += 1000 * len(it.piece.Poly.Terms)
		}
		weights[i] = w
	}
	order := parwork.HardestFirst(weights)
	// Every worker counts through its own capacityCounter so the pool never
	// contends on statistics; the per-worker Stats are merged below. The
	// counters share the siblings array so a chamber-level sub-piece stolen
	// by another worker accumulates into the stealer's Stats (still additive
	// and order-independent, so the merged totals stay bit-identical).
	spawnOK := !bounded && cc.meter.Limit() == 0
	workerStats := make([]Stats, workers)
	counters := make([]*capacityCounter, workers)
	for w := range counters {
		workerStats[w].NonAffineByAffineDims = map[int]int{}
		counters[w] = &capacityCounter{opts: cc.opts, stats: &workerStats[w], meter: cc.meter,
			ctx: ctx, siblings: counters, spawnOK: spawnOK}
	}
	ps0 := ex.PoolStats()
	workerTimes, err := ex.RunGroupTimed(ctx, len(items), func(w *parwork.Worker, scheduled int) error {
		idx := order[scheduled]
		stmt := distances[items[idx].stmt].Statement
		stage := "capacity piece of " + stmt
		c := counters[w.ID()]
		c.w = w
		op := c.meter.Op(stage)
		counts, err := c.countPiece(items[idx].piece.Domain, items[idx].piece.Poly, cacheLines, true, op, stage)
		if err == nil {
			results[idx] = counts
			return nil
		}
		if !bounded || budget.IsCancellation(err) {
			return fmt.Errorf("core: counting capacity misses of %s: %w", stmt, err)
		}
		// Bounded tier: the exact count of this one piece degraded; answer
		// it with certified interval bounds instead of failing the analysis.
		ivs, berr := c.boundPiece(items[idx].piece.Domain, items[idx].piece.Poly, cacheLines, op)
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
		// On failure the set of completed pieces depends on scheduling, so
		// the partial per-worker statistics are discarded: callers that fall
		// back to trace profiling keep deterministic stats.
		return capacityResult{}, err
	}

	// Merge the per-worker statistics in worker order; every counter is
	// additive, so the merged values do not depend on how the scheduler
	// distributed the pieces.
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
	// stay bit-identical for every worker count. Exact pieces contribute
	// width-zero intervals; degraded pieces contribute their certified
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

// countPiece counts, per capacity, the points of the piece whose stack
// distance polynomial exceeds that capacity. The piece is split and
// enumerated once; only the final classification compares against the
// individual capacities. topLevel marks the pieces of the original distance
// set for the statistics (pieces created by the splitting strategies are not
// classified again).
func (cc *capacityCounter) countPiece(domain presburger.BasicSet, poly qpoly.QPoly, capacities []int64, topLevel bool, op *budget.Op, stage string) ([]int64, error) {
	if topLevel {
		if poly.Degree() <= 1 {
			cc.stats.AffinePieces++
		} else {
			cc.stats.NonAffinePieces++
			cc.stats.NonAffineByAffineDims[cc.affineDims(domain, poly)]++
		}
	}
	if poly.Degree() <= 1 {
		return cc.countAffinePiece(domain, poly, capacities, op)
	}
	// Floor elimination (section 3.3).
	if cc.opts.Equalization {
		if pieces, ok := equalize(domain, poly); ok {
			cc.stats.EqualizationSplits++
			return cc.countSubPieces(pieces, capacities, op, stage)
		}
	}
	if cc.opts.Rasterization {
		if pieces, ok := rasterize(domain, poly); ok {
			cc.stats.RasterizationSplits++
			return cc.countSubPieces(pieces, capacities, op, stage)
		}
	}
	// Partial enumeration (section 3.2).
	if cc.opts.PartialEnumeration {
		n, err := cc.partialEnumeration(domain, poly, capacities, op, stage)
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

// countSubPieces counts a split's sub-pieces and folds them in index order.
// In exact mode with an unlimited meter the sub-pieces become chamber-level
// work items on the analysis pool: equalization and rasterization routinely
// split one heavy non-affine piece (a 3-D stencil chamber) into dozens of
// residue pieces, and spawning them lets idle workers steal from what would
// otherwise be one worker's multi-second tail. Each spawned sub-piece runs
// on the counter (and Stats) of the worker that picked it up, under a fresh
// operation with the same stage label; counts land index-addressed and fold
// in order, so totals are bit-identical to the serial path.
func (cc *capacityCounter) countSubPieces(pieces []splitPiece, capacities []int64, op *budget.Op, stage string) ([]int64, error) {
	total := make([]int64, len(capacities))
	if cc.spawnOK && cc.w != nil && cc.siblings != nil && len(pieces) > 1 && cc.w.Workers() > 1 {
		results := make([][]int64, len(pieces))
		err := cc.w.RunGroup(cc.ctx, len(pieces), func(sw *parwork.Worker, i int) error {
			c := cc.siblings[sw.ID()]
			c.w = sw
			n, err := c.countPiece(pieces[i].domain, pieces[i].poly, capacities, false, c.meter.Op(stage), stage)
			if err != nil {
				return err
			}
			results[i] = n
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, n := range results {
			addCounts(total, n)
		}
		return total, nil
	}
	for _, p := range pieces {
		n, err := cc.countPiece(p.domain, p.poly, capacities, false, op, stage)
		if err != nil {
			return nil, err
		}
		addCounts(total, n)
	}
	return total, nil
}

func addCounts(dst, src []int64) {
	for i, n := range src {
		dst[i] += n
	}
}

// affineDims counts the dimensions of the piece that the polynomial depends
// on at most affinely (the dimensions partial enumeration can keep
// symbolic); used for the Table 1 statistic.
func (cc *capacityCounter) affineDims(domain presburger.BasicSet, poly qpoly.QPoly) int {
	enum := chooseEnumerationDims(poly)
	n := domain.NDim() - len(enum)
	if n < 0 {
		n = 0
	}
	return n
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
		missSet, err := affineMissSet(domain, poly, capacity)
		if err != nil {
			return nil, err
		}
		// Parallel and implied bounds multiply the fan-out of the symbolic
		// count (every lower/upper bound pair of a summed dimension becomes a
		// piece, and any div-referenced dimension is residue-split); trimming
		// them per miss set is routinely a 10x-plus on pieces whose domains
		// inherited constraints from the composition pipeline.
		trimmed, ok := missSet.RemoveRedundancies()
		if !ok || trimmed.DefinitelyEmpty() {
			// Routinely hit for the outer cache levels: the piece's distance
			// never exceeds the capacity, and rational infeasibility is far
			// cheaper to establish than running the symbolic summation.
			continue
		}
		n, err := counting.CountSet(presburger.SetFromBasic(trimmed), op)
		if err != nil {
			return nil, err
		}
		counts[i] = n
	}
	return counts, nil
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
// capacities.
func (cc *capacityCounter) partialEnumeration(domain presburger.BasicSet, poly qpoly.QPoly, capacities []int64, op *budget.Op, stage string) ([]int64, error) {
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
		n, err := cc.countPiece(boundDomain, boundPoly, capacities, false, op, stage)
		if err != nil {
			return err
		}
		addCounts(total, n)
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
	out := make([]int, 0, len(chosen))
	for v := range chosen {
		out = append(out, v)
	}
	sortInts(out)
	return out
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
// eliminating every other dimension. Dimensions the exact projection cannot
// eliminate are over-approximated instead: the result is only used to
// generate candidate values that are validated against the exact domain, so
// a superset merely wastes a few empty iterations while keeping partial
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
		exact, err := out.ProjectOut(d, 1)
		if err != nil {
			exact = out.ProjectOutApprox(d, 1)
		}
		out = exact
	}
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
