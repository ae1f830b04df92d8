package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"haystack/internal/budget"
	"haystack/internal/counting"
	"haystack/internal/lexmin"
	"haystack/internal/presburger"
	"haystack/internal/qpoly"
	"haystack/internal/scop"
)

// ErrNonParametric reports that a pipeline stage cannot handle a piece of a
// parametric analysis symbolically in the program parameters. Stages return
// it (wrapped with context) instead of silently instantiating the parameters
// at some concrete size — partial parametric coverage is acceptable, silent
// wrong or size-specific answers are not.
var ErrNonParametric = errors.New("core: outside the parametric fragment")

// nonParametric wraps an underlying error as ErrNonParametric with context.
func nonParametric(stage string, err error) error {
	return fmt.Errorf("%w: %s: %v", ErrNonParametric, stage, err)
}

// maxClassifyDepth bounds the floor-elimination recursion of the capacity
// piece classification (the concrete engine uses the same rewrites without an
// explicit bound; the parametric classifier prefers a residual piece over an
// unbounded rewrite chain).
const maxClassifyDepth = 64

// parametricCountBudget caps the system fan-out of the one-time parametric
// count of a single capacity piece (counting.CardBasicSetSummands). Pieces
// that exceed it are demoted to per-evaluation residual counting — exact
// either way, the budget only trades one-time symbolic cost against
// per-evaluation cost. The value is deterministic (no wall-clock), so the
// parametric/residual split is reproducible across machines.
const parametricCountBudget = 3000

// stmtPiece is one piece of a statement's stack distance quasi-polynomial,
// tagged with the owning statement for per-statement attribution.
type stmtPiece struct {
	stmt   string
	domain presburger.BasicSet
	poly   qpoly.QPoly
}

// missPolys holds the parametric capacity miss counts for one cache capacity
// (in lines): per-statement piecewise quasi-polynomial sums over the
// parameter space, plus the affine pieces whose parametric count failed at
// this capacity and therefore join the residual pieces at evaluation time.
// The counts are qpoly.PwSum rather than disjoint PwQPoly: the per-piece
// cardinalities overlap heavily in the parameter space, and keeping them as
// summands makes accumulation O(1) instead of quadratic.
type missPolys struct {
	perStmt map[string]qpoly.PwSum
	extra   []stmtPiece
}

// ParametricModel is the fully size-independent form of the analysis: the
// stack distance quasi-polynomials, the total access count, and the
// compulsory miss count of a parametric program, all symbolic in the program
// parameters. One model answers queries for every problem size:
//
//   - Eval instantiates the model at a parameter binding and returns the same
//     Result a concrete Analyze of the instantiated program would produce —
//     in microseconds-to-milliseconds instead of a fresh symbolic analysis.
//   - Bind produces a concrete DistanceModel (the two-phase API) for a
//     binding, sharing the already-computed distances.
//
// Capacity misses need one extra ingredient: the set of instances whose
// distance exceeds a capacity is a polyhedron only where the distance
// polynomial is affine. Affine pieces (the vast majority, Table 1 of the
// paper) are counted symbolically in the parameters once per capacity and
// memoized; the remaining residual pieces are counted per evaluation after
// instantiation (see ResidualPieces). Compulsory misses and total accesses
// are always fully parametric.
//
// A ParametricModel is safe for concurrent Eval and Bind calls.
type ParametricModel struct {
	// Kernel is the name of the analyzed program.
	Kernel string
	// LineSize is the cache line size in bytes the model was built for.
	LineSize int64
	// Params are the program parameters in binding order.
	Params []string
	// TotalAccesses maps every parameter value to the number of dynamic
	// memory accesses of the program.
	TotalAccesses qpoly.PwQPoly
	// CompulsoryMisses maps every parameter value to the number of distinct
	// cache lines the program touches.
	CompulsoryMisses qpoly.PwQPoly

	prog              *scop.Program
	opts              Options
	paramSpace        presburger.Space
	distances         []StatementDistance
	perStmtCompulsory map[string]qpoly.PwQPoly // nil when attribution failed
	baseStats         Stats
	computeTime       time.Duration

	// Capacity-independent classification of the distance pieces: affine
	// pieces are countable parametrically, residual pieces are instantiated
	// and counted per evaluation.
	affine   []stmtPiece
	residual []stmtPiece

	mu        sync.Mutex
	missCache map[int64]*missPolys // capacity in lines -> parametric counts
}

// ComputeParametricModel runs the analysis of a parametric program once for
// all problem sizes: the stack distances, the total access count, and the
// compulsory misses are derived symbolically in the program parameters
// (scop.Program.Params). The returned model instantiates results for
// arbitrary parameter bindings via Eval and Bind.
//
// Programs whose symbolic pipeline leaves the supported parametric fragment
// return an error wrapping ErrNonParametric; there is no trace fallback for
// parametric programs (a trace requires a concrete size), so ModeSim is an
// error and ModeAuto builds the model like ModeExact.
func ComputeParametricModel(prog *scop.Program, lineSize int64, opts Options) (*ParametricModel, error) {
	return ComputeParametricModelContext(context.Background(), prog, lineSize, opts)
}

// ComputeParametricModelContext is ComputeParametricModel observing ctx (and
// Options.Deadline): the model construction aborts with the context error
// promptly after cancellation.
func ComputeParametricModelContext(ctx context.Context, prog *scop.Program, lineSize int64, opts Options) (*ParametricModel, error) {
	start := time.Now()
	if lineSize <= 0 {
		return nil, fmt.Errorf("core: line size must be positive")
	}
	if opts.Mode == ModeSim {
		return nil, fmt.Errorf("core: ModeSim needs a concrete problem size: the parametric model has no trace to profile")
	}
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
		opts.Deadline = 0
	}
	meter := budget.New(ctx, 0)
	if !prog.IsParametric() {
		return nil, fmt.Errorf("core: program %s has no parameters; use ComputeDistances", prog.Name)
	}
	if err := preflight(prog, opts); err != nil {
		return nil, err
	}
	info, err := scop.BuildPoly(prog)
	if err != nil {
		return nil, err
	}
	nP := info.NParam()
	pm := &ParametricModel{
		Kernel:     prog.Name,
		LineSize:   lineSize,
		Params:     append([]string(nil), info.Params...),
		prog:       prog,
		opts:       opts,
		paramSpace: info.ParamSpace(),
		missCache:  map[int64]*missPolys{},
	}
	// Options.Exec is call scoped; the model outlives this call and must not
	// retain the caller's executor.
	pm.opts.Exec = nil
	pm.baseStats.NonAffineByAffineDims = map[int]int{}

	total := qpoly.ZeroPw(pm.paramSpace)
	for _, ps := range info.Statements {
		card, err := counting.CardSet(ps.Domain, nP, pm.paramSpace, nil)
		if err != nil {
			return nil, nonParametric(fmt.Sprintf("counting accesses of %s", ps.Name), err)
		}
		total = total.Add(card)
	}
	pm.TotalAccesses = total

	tStack := time.Now()
	// Frontier and coalesce statistics mirror computeSymbolic (twophase.go):
	// the parametric distance phase runs the same coalescing-heavy pipeline,
	// so its Results should report the same observability counters. The
	// process-wide counter delta has the same caveat as there: under
	// concurrent model construction it can include hits of other models.
	coalesceBase := presburger.CoalesceCountersSnapshot()
	var fs frontierStats
	ex, release := opts.executor()
	distances, _, _, err := computeStackDistances(ctx, info, lineSize, ex, &fs, meter, false)
	release()
	if err != nil {
		if budget.IsCancellation(err) {
			return nil, err
		}
		return nil, nonParametric("stack distances", err)
	}
	pm.distances = distances
	pm.baseStats.StackDistanceTime = time.Since(tStack)
	pm.baseStats.PeakBasicMaps = int(fs.peak.Load())
	pm.baseStats.BasicMapsBeforeCoalesce = fs.before.Load()
	pm.baseStats.BasicMapsAfterCoalesce = fs.after.Load()
	hits := presburger.CoalesceCountersSnapshot().Sub(coalesceBase)
	pm.baseStats.CoalesceDedup = hits.Dedup
	pm.baseStats.CoalesceSubsumed = hits.Subsumed
	pm.baseStats.CoalesceAdjacent = hits.Adjacent
	pm.baseStats.CoalesceRedundantCons = hits.RedundantConstraints
	for _, d := range distances {
		pm.baseStats.DistancePieces += d.Distance.NumPieces()
	}

	tComp := time.Now()
	A := info.LineAccessMap(lineSize)
	compulsory, err := counting.CardSetRanges(A, nP, pm.paramSpace)
	if err != nil {
		return nil, nonParametric("counting compulsory misses", err)
	}
	pm.CompulsoryMisses = compulsory
	// Attribution is best effort, exactly like in the concrete pipeline:
	// totals stay exact even when the per-statement split is unavailable.
	if perStmt, err := attributeCompulsoryParametric(info, lineSize, nP, pm.paramSpace); err == nil {
		pm.perStmtCompulsory = perStmt
	}
	pm.baseStats.CompulsoryTime = time.Since(tComp)

	pm.classify()
	pm.computeTime = time.Since(start)
	return pm, nil
}

// classify splits the distance pieces into parametrically countable affine
// pieces and residual pieces, reusing the floor elimination rewrites of the
// concrete engine (equalization and rasterization are pure domain splits and
// carry parameter dimensions through unchanged). Partial and full
// enumeration are not available parametrically — their pieces become
// residual.
func (pm *ParametricModel) classify() {
	for _, sd := range pm.distances {
		for _, piece := range sd.Distance.Pieces {
			pm.classifyPiece(sd.Statement, piece.Domain, piece.Poly, 0)
		}
	}
}

func (pm *ParametricModel) classifyPiece(stmt string, domain presburger.BasicSet, poly qpoly.QPoly, depth int) {
	if poly.Degree() <= 1 {
		// Trim the domain once here rather than at every instantiation:
		// redundant parallel bounds and orphaned divs multiply the fan-out
		// of every later count (each lower/upper bound pair of a summed
		// dimension becomes a piece, and any div-referenced dimension is
		// residue-split).
		if dom, ok := domain.RemoveRedundancies(); ok {
			pm.affine = append(pm.affine, stmtPiece{stmt: stmt, domain: dom, poly: poly})
		}
		return
	}
	if depth < maxClassifyDepth {
		if pm.opts.Equalization {
			if pieces, ok := equalize(domain, poly); ok {
				for _, p := range pieces {
					pm.classifyPiece(stmt, p.domain, p.poly, depth+1)
				}
				return
			}
		}
		if pm.opts.Rasterization {
			if pieces, ok := rasterize(domain, poly); ok {
				for _, p := range pieces {
					pm.classifyPiece(stmt, p.domain, p.poly, depth+1)
				}
				return
			}
		}
	}
	if dom, ok := domain.RemoveRedundancies(); ok {
		pm.residual = append(pm.residual, stmtPiece{stmt: stmt, domain: dom, poly: poly})
	}
}

// ParametricPieces returns the number of distance pieces (after floor
// elimination splits) whose capacity misses are counted symbolically in the
// parameters.
func (pm *ParametricModel) ParametricPieces() int { return len(pm.affine) }

// ResidualPieces returns the number of distance pieces that must be
// instantiated and counted per evaluation (non-affine distance polynomials,
// e.g. products of a parameter and a loop variable, whose miss sets are not
// polyhedra in the parameters).
func (pm *ParametricModel) ResidualPieces() int { return len(pm.residual) }

// DistancePieces returns the number of pieces of the parametric stack
// distance quasi-polynomials.
func (pm *ParametricModel) DistancePieces() int { return pm.baseStats.DistancePieces }

// Distances returns the per-statement parametric stack distance
// quasi-polynomials. The slice is shared; callers must not modify it.
func (pm *ParametricModel) Distances() []StatementDistance { return pm.distances }

// ComputeTime returns the wall-clock time ComputeParametricModel spent
// building the model (the cost amortized across all evaluations).
func (pm *ParametricModel) ComputeTime() time.Duration { return pm.computeTime }

// CapacityMissPoly returns the parametric capacity miss count for one cache
// capacity in bytes, as a sum of piecewise quasi-polynomials over the
// parameter space, together with a flag reporting whether the polynomial is
// complete: when the model has residual pieces the polynomial covers only
// the parametric pieces and Eval adds the residual counts per size.
func (pm *ParametricModel) CapacityMissPoly(capacityBytes int64) (qpoly.PwSum, bool) {
	mp := pm.missPolysFor(capacityBytes / pm.LineSize)
	total := qpoly.ZeroSum(pm.paramSpace)
	names := make([]string, 0, len(mp.perStmt))
	for name := range mp.perStmt {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		total = total.AddSum(mp.perStmt[name])
	}
	return total, len(pm.residual) == 0 && len(mp.extra) == 0
}

// missPolysFor returns (computing and memoizing on first use) the parametric
// capacity miss counts for one capacity in lines.
func (pm *ParametricModel) missPolysFor(capacityLines int64) *missPolys {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if mp, ok := pm.missCache[capacityLines]; ok {
		return mp
	}
	mp := &missPolys{perStmt: map[string]qpoly.PwSum{}}
	for _, cp := range pm.affine {
		ms, err := affineMissSet(cp.domain, cp.poly, capacityLines)
		if err != nil {
			mp.extra = append(mp.extra, cp)
			continue
		}
		// Redundant bounds multiply the fan-out of the parametric count
		// (every lower/upper bound pair of an eliminated dimension becomes a
		// piece), so trim them first; a detectably empty miss set contributes
		// nothing.
		ms, ok := ms.RemoveRedundancies()
		if !ok {
			continue
		}
		card, err := counting.CardBasicSetSummands(ms, len(pm.Params), pm.paramSpace,
			budget.LimitOp("parametric piece count", parametricCountBudget))
		if err != nil {
			mp.extra = append(mp.extra, cp)
			continue
		}
		cur, ok := mp.perStmt[cp.stmt]
		if !ok {
			cur = qpoly.ZeroSum(pm.paramSpace)
		}
		// The accumulator is uniquely owned until it is published in the
		// cache, so append in place instead of paying AddSum's defensive
		// copy per piece.
		cur.Terms = append(cur.Terms, card.Terms...)
		mp.perStmt[cp.stmt] = cur
	}
	pm.missCache[capacityLines] = mp
	return mp
}

// paramPoint resolves a parameter binding into the parameter-space point, in
// parameter order. Validation (completeness, unknown names, the context
// constraints) is delegated to the program's shared binding checker.
func (pm *ParametricModel) paramPoint(bindings map[string]int64) ([]int64, error) {
	if err := pm.prog.CheckBindings(bindings); err != nil {
		return nil, err
	}
	point := make([]int64, len(pm.Params))
	for i, name := range pm.Params {
		point[i] = bindings[name]
	}
	return point, nil
}

// bindPiece instantiates a piece domain and polynomial at a parameter
// point, stripping the parameter dimensions entirely: the domain folds them
// by direct substitution (bounds that involved parameters become constant
// bounds, deduplicated to the tightest by simplification) and the
// polynomial binds-and-renumbers in one pass. Classification already
// redundancy-trimmed the stored pieces, so instantiation is a cheap linear
// rewrite. Returns ok=false when the bound domain is detectably empty.
func bindPiece(domain presburger.BasicSet, poly qpoly.QPoly, point []int64) (presburger.BasicSet, qpoly.QPoly, bool) {
	dom, ok := domain.SubstituteLeadingDims(point)
	if !ok {
		return dom, poly, false
	}
	return dom, poly.BindLeadingVars(point), true
}

// instantiatePiece is bindPiece for a classified capacity piece.
func instantiatePiece(p stmtPiece, point []int64) (presburger.BasicSet, qpoly.QPoly, bool) {
	return bindPiece(p.domain, p.poly, point)
}

// Eval instantiates the model at a parameter binding against a cache
// hierarchy and returns the Result a concrete Analyze of the instantiated
// program would produce (bit-identical counts; the Stats describe the
// parametric pipeline instead). Total accesses and compulsory misses are
// polynomial evaluations; capacity misses evaluate the per-capacity
// parametric polynomials (computed once per capacity across all Eval calls)
// plus a concrete count of the residual pieces.
func (pm *ParametricModel) Eval(cfg Config, bindings map[string]int64) (*Result, error) {
	start := time.Now()
	if cfg.LineSize != pm.LineSize {
		return nil, fmt.Errorf("core: parametric model was computed for line size %d, not %d", pm.LineSize, cfg.LineSize)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.HasSetAssoc() {
		// A parametric program has no fixed layout, so there is no set-index
		// map to partition the distances with. Bind the model first: the
		// instantiated DistanceModel answers set-associative queries.
		return nil, fmt.Errorf("core: parametric models answer fully associative hierarchies only; Bind the parameters and use the distance model for set-associative counting")
	}
	point, err := pm.paramPoint(bindings)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Kernel:           pm.Kernel,
		TotalAccesses:    pm.TotalAccesses.EvalInt(point),
		CompulsoryMisses: pm.CompulsoryMisses.EvalInt(point),
		Stats:            pm.baseStats.clone(),
	}
	if pm.perStmtCompulsory != nil {
		res.PerStatementCompulsory = evalCounts(pm.perStmtCompulsory, point)
	}

	tCap := time.Now()
	lines := make([]int64, len(cfg.CacheSizes))
	for i, size := range cfg.CacheSizes {
		lines[i] = size / cfg.LineSize
	}
	totals := make([]int64, len(lines))
	perStmt := make([]map[string]int64, len(lines))
	for l := range perStmt {
		perStmt[l] = map[string]int64{}
		for _, sd := range pm.distances {
			perStmt[l][sd.Statement] = 0
		}
	}
	// Parametric pieces: one polynomial evaluation per capacity.
	polys := make([]*missPolys, len(lines))
	for l, capacity := range lines {
		polys[l] = pm.missPolysFor(capacity)
		for stmt, poly := range polys[l].perStmt {
			n := poly.EvalInt(point)
			perStmt[l][stmt] += n
			totals[l] += n
		}
	}
	// The parametric polynomial evaluations above are exact; piece results
	// below accumulate onto these width-zero intervals (degraded pieces widen
	// them under ModeBounded).
	bounds := make([]counting.Interval, len(lines))
	for l := range bounds {
		bounds[l] = counting.Exact(totals[l])
	}
	var degradedReasons []string
	bounded := pm.opts.Mode == ModeBounded
	// Residual pieces: instantiate once, classify against all capacities in a
	// single pass with the concrete counting engine.
	countOpts := pm.opts
	counter := newCapacityCounter(countOpts, &res.Stats)
	counter.meter = budget.New(context.Background(), pm.opts.Budget)
	countConcrete := func(stmt string, dom presburger.BasicSet, poly qpoly.QPoly, caps []int64) ([]int64, []counting.Interval, error) {
		stage := "residual piece of " + stmt
		op := counter.meter.Op(stage)
		counts, err := counter.countPiece(dom, poly, caps, false, op, stage)
		if err == nil {
			return counts, nil, nil
		}
		if !bounded || budget.IsCancellation(err) {
			return nil, nil, fmt.Errorf("core: counting residual piece of %s: %w", stmt, err)
		}
		ivs, berr := counter.boundPiece(dom, poly, caps, op)
		if berr != nil {
			return nil, nil, fmt.Errorf("core: bounding residual piece of %s: %w", stmt, berr)
		}
		degradedReasons = append(degradedReasons, fmt.Sprintf("%s: residual piece bounded (%v)", stmt, err))
		return nil, ivs, nil
	}
	for _, rp := range pm.residual {
		dom, poly, ok := instantiatePiece(rp, point)
		if !ok || dom.DefinitelyEmpty() {
			continue
		}
		counts, ivs, err := countConcrete(rp.stmt, dom, poly, lines)
		if err != nil {
			return nil, err
		}
		if counts != nil {
			for l, n := range counts {
				perStmt[l][rp.stmt] += n
				totals[l] += n
				bounds[l] = bounds[l].Add(counting.Exact(n))
			}
			continue
		}
		for l, iv := range ivs {
			perStmt[l][rp.stmt] = satAddCount(perStmt[l][rp.stmt], iv.Hi)
			totals[l] = satAddCount(totals[l], iv.Hi)
			bounds[l] = bounds[l].Add(iv)
		}
	}
	// Affine pieces whose parametric count failed for a specific capacity.
	for l, mp := range polys {
		for _, rp := range mp.extra {
			dom, poly, ok := instantiatePiece(rp, point)
			if !ok || dom.DefinitelyEmpty() {
				continue
			}
			counts, ivs, err := countConcrete(rp.stmt, dom, poly, lines[l:l+1])
			if err != nil {
				return nil, err
			}
			if counts != nil {
				perStmt[l][rp.stmt] += counts[0]
				totals[l] += counts[0]
				bounds[l] = bounds[l].Add(counting.Exact(counts[0]))
				continue
			}
			perStmt[l][rp.stmt] = satAddCount(perStmt[l][rp.stmt], ivs[0].Hi)
			totals[l] = satAddCount(totals[l], ivs[0].Hi)
			bounds[l] = bounds[l].Add(ivs[0])
		}
	}
	for i, size := range cfg.CacheSizes {
		capBounds := bounds[i]
		if !capBounds.IsExact() {
			// Certified cap: capacity misses are repeat accesses, so they
			// cannot exceed the non-compulsory access count. Exact counts are
			// left untouched.
			capBounds = capBounds.ClampHi(res.TotalAccesses - res.CompulsoryMisses)
		}
		total := capBounds.AddConst(res.CompulsoryMisses)
		res.Levels = append(res.Levels, LevelResult{
			CacheBytes:           size,
			CapacityMisses:       capBounds.Hi,
			TotalMisses:          total.Hi,
			PerStatementCapacity: perStmt[i],
			CapacityMissBounds:   capBounds,
			TotalMissBounds:      total,
		})
	}
	if len(degradedReasons) > 0 {
		res.Tier = TierBounded
		res.FallbackReason = degradationSummary(degradedReasons, counting.Exact(res.CompulsoryMisses))
	}
	res.finalizeBounds()
	res.Stats.BudgetUsed += counter.meter.Total()
	res.Stats.CapacityTime = time.Since(tCap)
	res.Stats.TotalTime = time.Since(start)
	return res, nil
}

// Bind instantiates the model at a parameter binding into a concrete
// DistanceModel: the parametric distances are fixed at the binding (no
// symbolic recomputation), so the result answers CountMisses queries for any
// hierarchy with the model's line size exactly like
// ComputeDistances(prog.Instantiate(bindings), ...) — without paying the
// distance phase again.
func (pm *ParametricModel) Bind(bindings map[string]int64) (*DistanceModel, error) {
	start := time.Now()
	point, err := pm.paramPoint(bindings)
	if err != nil {
		return nil, err
	}
	inst, err := pm.prog.Instantiate(bindings)
	if err != nil {
		return nil, err
	}
	dm := &DistanceModel{Kernel: pm.Kernel, LineSize: pm.LineSize, opts: pm.opts, prog: inst}
	dm.baseStats.NonAffineByAffineDims = map[int]int{}
	dm.TotalAccesses = pm.TotalAccesses.EvalInt(point)
	dm.CompulsoryMisses = pm.CompulsoryMisses.EvalInt(point)
	dm.compulsoryBounds = counting.Exact(dm.CompulsoryMisses)
	if pm.perStmtCompulsory != nil {
		dm.perStmtCompulsory = evalCounts(pm.perStmtCompulsory, point)
	}
	for _, sd := range pm.distances {
		bound := bindPieces(sd.Distance, point)
		dm.baseStats.DistancePieces += bound.NumPieces()
		dm.distances = append(dm.distances, StatementDistance{Statement: sd.Statement, Distance: bound})
	}
	dm.computeTime = time.Since(start)
	return dm, nil
}

// bindPieces instantiates a parametric piecewise quasi-polynomial at a
// parameter point: every piece is bound and stripped of the parameter
// dimensions via bindPiece; detectably empty pieces are dropped. The result
// lives in the statement space without its leading parameter dimensions.
func bindPieces(pw qpoly.PwQPoly, point []int64) qpoly.PwQPoly {
	var out qpoly.PwQPoly
	spaceSet := false
	for _, p := range pw.Pieces {
		dom, poly, ok := bindPiece(p.Domain, p.Poly, point)
		if !ok || dom.DefinitelyEmpty() {
			continue
		}
		if !spaceSet {
			out.Space = dom.Space()
			spaceSet = true
		}
		out.Pieces = append(out.Pieces, qpoly.Piece{Domain: dom, Poly: poly})
	}
	if !spaceSet {
		// All pieces vanished at this size; keep a consistent space by
		// stripping the parameter dimensions from the parametric space.
		dims := pw.Space.Dims
		if len(point) <= len(dims) {
			dims = dims[len(point):]
		}
		out.Space = presburger.NewSpace(pw.Space.Name, dims...)
	}
	return out
}

// evalCounts evaluates a map of parametric counts at a parameter point.
func evalCounts(polys map[string]qpoly.PwQPoly, point []int64) map[string]int64 {
	out := make(map[string]int64, len(polys))
	for name, p := range polys {
		out[name] = p.EvalInt(point)
	}
	return out
}

// attributeCompulsoryParametric splits the compulsory misses by the
// statement performing the first access of every line, parametrically in the
// program parameters (the parametric analogue of attributeCompulsory).
func attributeCompulsoryParametric(info *scop.PolyInfo, lineSize int64, nParam int, paramSpace presburger.Space) (map[string]qpoly.PwQPoly, error) {
	S := info.Schedule()
	A := info.LineAccessMap(lineSize)
	lineToSched, err := A.Reverse().ApplyRange(S)
	if err != nil {
		return nil, err
	}
	out := map[string]qpoly.PwQPoly{}
	for _, m := range lineToSched.Maps() {
		first, err := lexmin.MapLexmin(simplifyMap(m, nil))
		if err != nil {
			return nil, err
		}
		firstInst, err := presburger.NewUnionMap().Add(first).ApplyRange(S.Reverse())
		if err != nil {
			return nil, err
		}
		for _, fm := range firstInst.Maps() {
			dom, err := fm.Domain()
			if err != nil {
				return nil, err
			}
			card, err := counting.CardSet(dom, nParam, paramSpace, nil)
			if err != nil {
				return nil, err
			}
			name := fm.OutSpace().Name
			cur, ok := out[name]
			if !ok {
				cur = qpoly.ZeroPw(paramSpace)
			}
			out[name] = cur.Add(card)
		}
	}
	return out, nil
}
