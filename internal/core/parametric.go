package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"haystack/internal/budget"
	"haystack/internal/counting"
	"haystack/internal/ints"
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

// missPolys holds the parametric capacity miss counts for one cache capacity
// (in lines): per statement, the summand pieces of every affine piece's
// parametric count, kept as one qpoly.Bag (sum semantics) rather than a
// disjoint PwQPoly: the per-piece cardinalities overlap heavily in the
// parameter space, so summands make accumulation O(1) instead of quadratic.
// extra holds the affine pieces whose parametric count failed at this
// capacity and therefore join the residual pieces at evaluation time
// (grouped by statement, like every distance the counting engine takes).
type missPolys struct {
	perStmt map[string]*qpoly.Bag
	extra   []StatementDistance
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

	// Capacity-independent classification of the distance pieces, both
	// parallel to distances: affine pieces are countable parametrically,
	// residual pieces are instantiated and counted per evaluation.
	affine   []StatementDistance
	residual []StatementDistance

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

// ComputeParametricModelContext is ComputeParametricModel observing ctx: the
// model construction aborts with the context error promptly after
// cancellation.
func ComputeParametricModelContext(ctx context.Context, prog *scop.Program, lineSize int64, opts Options) (*ParametricModel, error) {
	start := time.Now()
	if lineSize <= 0 {
		return nil, fmt.Errorf("core: line size must be positive")
	}
	if opts.Mode == ModeSim {
		return nil, fmt.Errorf("core: ModeSim needs a concrete problem size: the parametric model has no trace to profile")
	}
	meter := budget.New(ctx, 0)
	if !prog.IsParametric() {
		return nil, fmt.Errorf("core: program %s has no parameters; use ComputeDistances", prog.Name)
	}
	info, err := extract(prog)
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

	ex, release := opts.executor()
	distances, _, _, err := stackDistancePhase(ctx, info, lineSize, ex, meter, false, &pm.baseStats)
	release()
	if err != nil {
		if budget.IsCancellation(err) {
			return nil, err
		}
		return nil, nonParametric("stack distances", err)
	}
	pm.distances = distances

	tComp := time.Now()
	lines, err := touchedLines(info, lineSize)
	if err != nil {
		return nil, nonParametric("counting compulsory misses", err)
	}
	pm.CompulsoryMisses = qpoly.ZeroPw(pm.paramSpace)
	for _, s := range lines {
		card, err := counting.CardSet(s, nP, pm.paramSpace, nil)
		if err != nil {
			return nil, nonParametric("counting compulsory misses", err)
		}
		pm.CompulsoryMisses = pm.CompulsoryMisses.Add(card)
	}
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
	pm.affine = make([]StatementDistance, len(pm.distances))
	pm.residual = make([]StatementDistance, len(pm.distances))
	for i, sd := range pm.distances {
		pm.affine[i] = StatementDistance{Statement: sd.Statement, Distance: qpoly.PwQPoly{Space: sd.Distance.Space}}
		pm.residual[i] = pm.affine[i]
		for _, piece := range sd.Distance.Pieces {
			pm.classifyPiece(i, piece.Domain, piece.Poly, 0)
		}
	}
}

func (pm *ParametricModel) classifyPiece(stmt int, domain presburger.BasicSet, poly qpoly.QPoly, depth int) {
	if poly.Degree() <= 1 {
		// Trim the domain once here rather than at every instantiation:
		// redundant parallel bounds and orphaned divs multiply the fan-out
		// of every later count (each lower/upper bound pair of a summed
		// dimension becomes a piece, and any div-referenced dimension is
		// residue-split).
		if dom, ok := domain.RemoveRedundancies(); ok {
			addPiece(&pm.affine[stmt], dom, poly)
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
		addPiece(&pm.residual[stmt], dom, poly)
	}
}

// addPiece appends one piece to a statement's distances.
func addPiece(sd *StatementDistance, domain presburger.BasicSet, poly qpoly.QPoly) {
	sd.Distance.Pieces = append(sd.Distance.Pieces, qpoly.Piece{Domain: domain, Poly: poly})
}

// numPieces is the total number of pieces of a set of distances.
func numPieces(distances []StatementDistance) int {
	n := 0
	for _, sd := range distances {
		n += sd.Distance.NumPieces()
	}
	return n
}

// ParametricPieces returns the number of distance pieces (after floor
// elimination splits) whose capacity misses are counted symbolically in the
// parameters.
func (pm *ParametricModel) ParametricPieces() int { return numPieces(pm.affine) }

// ResidualPieces returns the number of distance pieces that must be
// instantiated and counted per evaluation (non-affine distance polynomials,
// e.g. products of a parameter and a loop variable, whose miss sets are not
// polyhedra in the parameters).
func (pm *ParametricModel) ResidualPieces() int { return numPieces(pm.residual) }

// DistancePieces returns the number of pieces of the parametric stack
// distance quasi-polynomials.
func (pm *ParametricModel) DistancePieces() int { return pm.baseStats.DistancePieces }

// ComputeTime returns the wall-clock time ComputeParametricModel spent
// building the model (the cost amortized across all evaluations).
func (pm *ParametricModel) ComputeTime() time.Duration { return pm.computeTime }

// missPolysFor returns (computing and memoizing on first use) the parametric
// capacity miss counts for one capacity in lines.
func (pm *ParametricModel) missPolysFor(capacityLines int64) *missPolys {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if mp, ok := pm.missCache[capacityLines]; ok {
		return mp
	}
	mp := &missPolys{perStmt: map[string]*qpoly.Bag{}}
	for _, sd := range pm.affine {
		var summands []qpoly.Piece
		extra := StatementDistance{Statement: sd.Statement, Distance: qpoly.PwQPoly{Space: sd.Distance.Space}}
		for _, p := range sd.Distance.Pieces {
			ms, err := affineMissSet(p.Domain, p.Poly, capacityLines)
			if err != nil {
				addPiece(&extra, p.Domain, p.Poly)
				continue
			}
			// Redundant bounds multiply the fan-out of the parametric count
			// (every lower/upper bound pair of an eliminated dimension becomes
			// a piece), so trim them first; a detectably empty miss set
			// contributes nothing.
			ms, ok := ms.RemoveRedundancies()
			if !ok {
				continue
			}
			card, err := counting.CardBasicSetSummands(ms, len(pm.Params), pm.paramSpace,
				budget.LimitOp("parametric piece count", parametricCountBudget))
			if err != nil {
				addPiece(&extra, p.Domain, p.Poly)
				continue
			}
			summands = append(summands, card...)
		}
		if len(summands) > 0 {
			mp.perStmt[sd.Statement] = qpoly.NewBag(summands)
		}
		if extra.Distance.NumPieces() > 0 {
			mp.extra = append(mp.extra, extra)
		}
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

// Eval instantiates the model at a parameter binding against a cache
// hierarchy and returns the Result a concrete Analyze of the instantiated
// program would produce (bit-identical counts; the Stats describe the
// parametric pipeline instead). Total accesses and compulsory misses are
// polynomial evaluations; capacity misses evaluate the per-capacity
// parametric polynomials (computed once per capacity across all Eval calls)
// plus a count of the instantiated residual pieces by the same counting
// engine CountMisses uses: in parallel on a transient executor sized by the
// model's Options.Parallelism, and degrading to certified bounds under
// ModeBounded.
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
	compulsory := pm.CompulsoryMisses.EvalInt(point)
	res := &Result{
		Kernel:           pm.Kernel,
		TotalAccesses:    pm.TotalAccesses.EvalInt(point),
		CompulsoryMisses: compulsory,
		CompulsoryBounds: counting.Exact(compulsory),
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
	counter := newCapacityCounter(pm.opts, &res.Stats)
	counter.meter = budget.New(context.Background(), pm.opts.Budget)
	// Residual pieces: instantiated once and classified against all
	// capacities in a single pass. The residual distances list every
	// statement, so the per-statement maps start with all of them.
	counts, err := counter.Count(bindDistances(pm.residual, point), lines)
	if err != nil {
		return nil, err
	}
	for l, capacity := range lines {
		mp := pm.missPolysFor(capacity)
		// Parametric pieces: one exact polynomial evaluation per statement.
		for stmt, bag := range mp.perStmt {
			n := bag.EvalSum(point).Int()
			counts.perStmt[l][stmt] = ints.SatAdd(counts.perStmt[l][stmt], n)
			counts.bounds[l] = counts.bounds[l].Add(counting.Exact(n))
		}
		// Affine pieces whose parametric count failed at this capacity.
		if len(mp.extra) == 0 {
			continue
		}
		extra, err := counter.Count(bindDistances(mp.extra, point), lines[l:l+1])
		if err != nil {
			return nil, err
		}
		for stmt, n := range extra.perStmt[0] {
			counts.perStmt[l][stmt] = ints.SatAdd(counts.perStmt[l][stmt], n)
		}
		counts.bounds[l] = counts.bounds[l].Add(extra.bounds[0])
		counts.degraded = append(counts.degraded, extra.degraded...)
	}
	res.setLevels(cfg.CacheSizes, counts.bounds, counts.perStmt, counts.degraded)
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
	dm.distances = bindDistances(pm.distances, point)
	dm.baseStats.DistancePieces = numPieces(dm.distances)
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

// bindDistances instantiates every statement's distances at a parameter
// point (bindPieces per statement).
func bindDistances(distances []StatementDistance, point []int64) []StatementDistance {
	out := make([]StatementDistance, len(distances))
	for i, sd := range distances {
		out[i] = StatementDistance{Statement: sd.Statement, Distance: bindPieces(sd.Distance, point)}
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
	out := map[string]qpoly.PwQPoly{}
	err := walkFirstAccesses(info, lineSize, func(stmt string, dom presburger.Set) error {
		card, err := counting.CardSet(dom, nParam, paramSpace, nil)
		if err != nil {
			return err
		}
		cur, ok := out[stmt]
		if !ok {
			cur = qpoly.ZeroPw(paramSpace)
		}
		out[stmt] = cur.Add(card)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
