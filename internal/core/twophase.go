package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"haystack/internal/budget"
	"haystack/internal/counting"
	"haystack/internal/parwork"
	"haystack/internal/presburger"
	"haystack/internal/reusedist"
	"haystack/internal/scop"
)

// DistanceModel is the reusable, cache-capacity-independent half of the
// analysis: the backward stack distance piecewise quasi-polynomials of one
// program at a fixed cache line size, together with the compulsory miss
// counts and the total access count. The stack distances do not depend on
// the cache capacities (section 3.1 of the paper), so one DistanceModel can
// classify its distances against arbitrarily many cache hierarchies via
// CountMisses — the expensive symbolic phase is paid exactly once per
// (program, line size) pair. This split is what makes design-space
// exploration sweeps (internal/explore, cmd/tune) cheap: only the
// comparatively fast counting phase runs per hierarchy.
//
// A DistanceModel is safe for concurrent CountMisses calls.
type DistanceModel struct {
	// Kernel is the name of the analyzed program.
	Kernel string
	// LineSize is the cache line size in bytes the distances were computed
	// for; CountMisses only accepts configurations with the same line size.
	LineSize int64
	// TotalAccesses is the number of dynamic memory accesses of the program.
	TotalAccesses int64
	// CompulsoryMisses is the number of distinct cache lines the program
	// touches (the first access of every line misses at every level).
	CompulsoryMisses int64

	opts              Options
	prog              *scop.Program
	distances         []StatementDistance
	perStmtCompulsory map[string]int64
	// baseStats holds the distance-phase statistics (stack distance and
	// compulsory timing, piece counts) copied into every CountMisses result.
	baseStats   Stats
	computeTime time.Duration

	// fallbackReason is non-empty when the symbolic distance phase failed
	// and the model operates on an exact trace profile instead. The profile
	// is also capacity independent, so fallback models amortize across
	// hierarchies exactly like symbolic ones.
	fallbackReason string
	profileOnce    sync.Once
	profile        reusedist.Profile
	profileErr     error

	// Bounded-tier state (ModeBounded only). stmtInstances holds the exact
	// per-statement instance counts — the anchor of every certified bound.
	// compulsoryBounds is the certified interval around CompulsoryMisses
	// (width 0 when exact). boundedStmts maps statements whose distance
	// polynomial could not be derived to the degradation reason; their
	// capacity misses are bounded by [0, instances]. boundedReason is set
	// when the whole distance phase degraded (no distances at all).
	stmtInstances    map[string]int64
	compulsoryBounds counting.Interval
	boundedStmts     map[string]string
	boundedReason    string

	// Set-associative state, retained by a successful symbolic distance
	// phase: the polyhedral description and the raw touched-line union map.
	// CountMisses re-counts the touched map restricted to each cache set
	// when the query's geometry has more than one set — the set partition
	// depends on the hierarchy, so it cannot be precomputed here. A nil
	// saInfo (trace-fallback or externally constructed models) answers
	// set-associative queries from the simulation tier instead.
	saInfo    *scop.PolyInfo
	saTouched presburger.UnionMap
}

// ComputeDistances runs the cache-independent phase of the analysis: it
// extracts the polyhedral description of the program and derives the stack
// distance quasi-polynomials and the compulsory misses for the given line
// size. The returned model answers CountMisses queries for any hierarchy
// sharing that line size without recomputing the distances.
//
// opts.Mode picks the rung of the degradation ladder. ModeSim builds the
// model from an exact stack distance profile of the trace without trying the
// symbolic pipeline (ComputeDistancesByProfiling). Under ModeAuto, a program
// the symbolic pipeline cannot handle falls back to the same profile;
// results stay exact (CountMisses marks them with UsedTraceFallback) and are
// still shared across hierarchies. ModeExact returns the error instead.
func ComputeDistances(prog *scop.Program, lineSize int64, opts Options) (*DistanceModel, error) {
	return ComputeDistancesContext(context.Background(), prog, lineSize, opts)
}

// ComputeDistancesContext is ComputeDistances observing ctx (and
// opts.Deadline, when set): workers stop claiming items promptly after
// cancellation and the context error is returned. Under ModeBounded,
// operations that exceed opts.Budget or leave the supported fragment
// degrade to certified bounds instead of failing the phase.
func ComputeDistancesContext(ctx context.Context, prog *scop.Program, lineSize int64, opts Options) (*DistanceModel, error) {
	start := time.Now()
	if lineSize <= 0 {
		return nil, fmt.Errorf("core: line size must be positive")
	}
	if prog.IsParametric() {
		return nil, fmt.Errorf("core: program %s is parametric; use ComputeParametricModel (or Instantiate it first)", prog.Name)
	}
	if opts.Mode == ModeSim {
		return ComputeDistancesByProfiling(prog, lineSize)
	}
	if err := preflight(prog, opts); err != nil {
		return nil, err
	}
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
	}
	meter := budget.New(ctx, opts.Budget)
	dm := &DistanceModel{Kernel: prog.Name, LineSize: lineSize, opts: opts, prog: prog}
	// Options.Exec is call scoped; the model outlives this call and must not
	// retain the caller's executor (later CountMisses calls build their own).
	dm.opts.Exec = nil
	dm.baseStats.NonAffineByAffineDims = map[int]int{}
	ex, release := opts.executor()
	defer release()

	info, err := scop.BuildPoly(prog)
	if err != nil {
		return nil, err
	}
	dm.TotalAccesses, dm.stmtInstances, err = totalAccesses(info)
	if err != nil {
		return nil, err
	}

	if symErr := dm.computeSymbolic(ctx, info, meter, ex); symErr != nil {
		switch {
		case budget.IsCancellation(symErr):
			return nil, symErr
		case opts.Mode == ModeBounded:
			// Bounded tier, global degradation: no distance polynomials at
			// all, but the instance counts stay exact and the compulsory
			// misses are still attempted — every level's misses are then
			// certifiably between the compulsory lower bound and the total
			// access count.
			if err := dm.degradeGlobal(info, meter, symErr); err != nil {
				return nil, err
			}
		case opts.Mode == ModeAuto:
			if err := dm.ensureProfile(); err != nil {
				return nil, err
			}
			dm.fallbackReason = symErr.Error()
			dm.distances = nil
			dm.perStmtCompulsory = nil
			dm.saInfo = nil
			dm.saTouched = presburger.UnionMap{}
			// Discard any partial symbolic statistics (the stack distance
			// stage may have succeeded before a later stage failed):
			// fallback models answer from the profile, so their results
			// must not carry distance-phase stats.
			dm.baseStats = Stats{NonAffineByAffineDims: map[int]int{}}
			dm.CompulsoryMisses = dm.profile.Compulsory
		default:
			return nil, symErr
		}
	}
	dm.baseStats.BudgetUsed = meter.Total()
	dm.computeTime = time.Since(start)
	return dm, nil
}

// degradeGlobal switches the model to the bounded tier after a global
// distance-phase failure: the compulsory misses are counted independently
// of the failed stage (exactly if possible, as a certified interval
// otherwise; [0, TotalAccesses] is always sound), and every capacity query
// will answer with intervals anchored on the exact instance counts.
func (dm *DistanceModel) degradeGlobal(info *scop.PolyInfo, meter *budget.Meter, symErr error) error {
	dm.boundedReason = symErr.Error()
	dm.distances = nil
	return dm.boundCompulsory(info, meter)
}

// boundCompulsory counts the compulsory misses on the bounded tier: exactly
// if the budget allows, as a certified interval otherwise, and as
// [0, TotalAccesses] (always sound) when the count fails. Only an exact
// count is attributed to statements.
func (dm *DistanceModel) boundCompulsory(info *scop.PolyInfo, meter *budget.Meter) error {
	A := info.LineAccessMap(dm.LineSize)
	iv, err := counting.CountSetRangesInterval(A, meter.Op("compulsory count"), counting.DefaultMaxEnum)
	if err != nil {
		if budget.IsCancellation(err) {
			return err
		}
		iv = counting.Interval{Lo: 0, Hi: dm.TotalAccesses}
	}
	iv = iv.ClampHi(dm.TotalAccesses)
	dm.compulsoryBounds = iv
	dm.CompulsoryMisses = iv.Hi
	if iv.IsExact() {
		if perStmt, err := attributeCompulsory(info, dm.LineSize); err == nil {
			dm.perStmtCompulsory = perStmt
		}
	}
	return nil
}

// ComputeDistancesByProfiling builds a DistanceModel from an exact stack
// distance profile of the trace without attempting the symbolic pipeline.
// The resulting model answers CountMisses queries for any hierarchy with
// the given line size, exactly like a symbolic model (the profile, too, is
// capacity independent), and its results are exact — but the construction
// cost is proportional to the trace length rather than problem-size
// independent. It is the strategy of choice for programs that are
// expensive to analyze symbolically, such as the deep loop nests tiling
// produces (explore.TiledProfile); results carry UsedTraceFallback so the
// provenance stays visible.
func ComputeDistancesByProfiling(prog *scop.Program, lineSize int64) (*DistanceModel, error) {
	start := time.Now()
	if lineSize <= 0 {
		return nil, fmt.Errorf("core: line size must be positive")
	}
	dm := &DistanceModel{Kernel: prog.Name, LineSize: lineSize, prog: prog}
	dm.baseStats.NonAffineByAffineDims = map[int]int{}
	dm.fallbackReason = "exact trace profiling requested"
	if err := dm.ensureProfile(); err != nil {
		return nil, err
	}
	dm.TotalAccesses = dm.profile.Accesses
	dm.CompulsoryMisses = dm.profile.Compulsory
	dm.computeTime = time.Since(start)
	return dm, nil
}

// computeSymbolic fills the model from the symbolic pipeline: stack
// distances (section 3.1) and compulsory misses (section 3.4), together
// with the coalescing statistics of the distance phase.
func (dm *DistanceModel) computeSymbolic(ctx context.Context, info *scop.PolyInfo, meter *budget.Meter, ex parwork.Exec) error {
	tStack := time.Now()
	// The presburger coalescing counters are process-wide; the deltas
	// around the distance phase attribute its hits to this model. Under
	// concurrent ComputeDistances calls (design-space sweeps) the snapshot
	// windows overlap, so each model's delta can include hits of the
	// others — treat the per-model counters as observability, not as an
	// exact partition (CoalesceCountersSnapshot itself stays exact
	// process-wide).
	coalesceBase := presburger.CoalesceCountersSnapshot()
	arenaBase := presburger.ArenaCountersSnapshot()
	poolBase := ex.PoolStats()
	var fs frontierStats
	bounded := dm.opts.Mode == ModeBounded
	distances, degraded, touched, err := computeStackDistances(ctx, info, dm.LineSize, ex, &fs, meter, bounded)
	if err != nil {
		return err
	}
	dm.saInfo = info
	dm.saTouched = touched
	dm.baseStats.StackDistanceTime = time.Since(tStack)
	dm.baseStats.PeakBasicMaps = int(fs.peak.Load())
	dm.baseStats.BasicMapsBeforeCoalesce = fs.before.Load()
	dm.baseStats.BasicMapsAfterCoalesce = fs.after.Load()
	hits := presburger.CoalesceCountersSnapshot().Sub(coalesceBase)
	dm.baseStats.CoalesceDedup = hits.Dedup
	dm.baseStats.CoalesceSubsumed = hits.Subsumed
	dm.baseStats.CoalesceAdjacent = hits.Adjacent
	dm.baseStats.CoalesceRedundantCons = hits.RedundantConstraints
	// Arena and scheduler counters are process-wide like the coalesce
	// counters; the deltas attribute this phase's activity to the model,
	// with the same overlap caveat under concurrent ComputeDistances calls.
	arena := presburger.ArenaCountersSnapshot().Sub(arenaBase)
	dm.baseStats.ArenaHits = arena.Hits
	dm.baseStats.ArenaMisses = arena.Misses
	pool := ex.PoolStats()
	dm.baseStats.Steals = pool.Steals - poolBase.Steals
	dm.baseStats.Splits = pool.Splits - poolBase.Splits
	for _, d := range distances {
		dm.baseStats.DistancePieces += d.Distance.NumPieces()
	}
	dm.distances = distances
	dm.boundedStmts = degraded

	tComp := time.Now()
	if bounded {
		if err := dm.boundCompulsory(info, meter); err != nil {
			return err
		}
	} else {
		compulsory, perStmt, err := CountCompulsoryMisses(info, dm.LineSize)
		if err != nil {
			return err
		}
		dm.CompulsoryMisses = compulsory
		dm.perStmtCompulsory = perStmt
		dm.compulsoryBounds = counting.Exact(compulsory)
	}
	dm.baseStats.CompulsoryTime = time.Since(tComp)
	return nil
}

// Degraded reports the bounded-tier degradations of the distance phase:
// the per-statement reasons (statements whose capacity misses are interval
// bounded) or, for a global degradation, the single phase-wide reason.
func (dm *DistanceModel) Degraded() map[string]string {
	if dm.boundedReason != "" {
		return map[string]string{"*": dm.boundedReason}
	}
	return dm.boundedStmts
}

// UsedTraceFallback reports whether the symbolic distance phase failed and
// the model answers queries from an exact trace profile instead.
func (dm *DistanceModel) UsedTraceFallback() bool { return dm.fallbackReason != "" }

// ComputeTime returns the wall-clock time ComputeDistances spent building
// the model (the cost amortized across CountMisses calls).
func (dm *DistanceModel) ComputeTime() time.Duration { return dm.computeTime }

// DistancePieces returns the number of pieces of the stack distance
// quasi-polynomials (zero for fallback models).
func (dm *DistanceModel) DistancePieces() int { return dm.baseStats.DistancePieces }

// Distances returns the per-statement stack distance quasi-polynomials (nil
// for fallback models). The slice is shared; callers must not modify it.
func (dm *DistanceModel) Distances() []StatementDistance { return dm.distances }

// CountMisses runs the capacity-dependent phase: it classifies the stack
// distances of the model against every capacity of the hierarchy and
// returns a Result identical to Analyze(prog, cfg, opts) — the distance
// phase is simply not paid again. cfg.LineSize must match the line size the
// distances were computed for. The counting engine uses the parallelism of
// the options the model was built with.
func (dm *DistanceModel) CountMisses(cfg Config) (*Result, error) {
	return dm.CountMissesExec(context.Background(), cfg, nil)
}

// CountMissesExec is CountMisses observing ctx (and opts.Deadline) and
// scheduling the counting engine on the given executor instead of spinning
// up workers of its own: counting workers stop claiming pieces promptly
// after cancellation and the context error is returned. Callers that
// already run on a pool (internal/explore sweeps) pass their Worker so
// capacity pieces become stealable units of the shared pool. A nil ex
// selects a transient executor sized by the model's Options.Parallelism.
// The executor is used only for the duration of the call and never
// retained; results are bit-identical for every executor shape.
func (dm *DistanceModel) CountMissesExec(ctx context.Context, cfg Config, ex parwork.Exec) (*Result, error) {
	start := time.Now()
	if cfg.LineSize != dm.LineSize {
		return nil, fmt.Errorf("core: distance model was computed for line size %d, not %d", dm.LineSize, cfg.LineSize)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dm.opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dm.opts.Deadline)
		defer cancel()
	}
	meter := budget.New(ctx, dm.opts.Budget)
	res := &Result{Kernel: dm.Kernel, TotalAccesses: dm.TotalAccesses, Stats: dm.baseStats.clone()}
	if dm.fallbackReason != "" {
		if err := dm.fillFromProfile(res, cfg); err != nil {
			return nil, err
		}
		res.UsedTraceFallback = true
		res.FallbackReason = dm.fallbackReason
		res.Tier = TierSimulated
		res.finalizeBounds()
		res.Stats.TotalTime = dm.computeTime + time.Since(start)
		return res, nil
	}
	res.CompulsoryMisses = dm.CompulsoryMisses
	res.CompulsoryBounds = dm.compulsoryBounds
	if res.CompulsoryBounds == (counting.Interval{}) && res.CompulsoryMisses != 0 {
		// Models built before the interval machinery (external constructors,
		// tests) carry a zero-valued bounds field; the exact count is the
		// width-zero interval.
		res.CompulsoryBounds = counting.Exact(res.CompulsoryMisses)
	}
	res.PerStatementCompulsory = cloneCounts(dm.perStmtCompulsory)
	if dm.boundedReason != "" {
		// Global bounded tier: no distance polynomials exist. Every level's
		// capacity misses lie between zero and the non-compulsory accesses,
		// certifiably — capacity misses are repeat accesses by definition.
		dm.fillFromInstanceBounds(res, cfg)
		res.Stats.BudgetUsed = meter.Total()
		res.Stats.TotalTime = dm.computeTime + time.Since(start)
		return res, nil
	}
	if countErr := dm.countSymbolic(ctx, cfg, ex, res, meter); countErr != nil {
		if budget.IsCancellation(countErr) || dm.opts.Mode != ModeAuto {
			return nil, countErr
		}
		if err := dm.ensureProfile(); err != nil {
			return nil, err
		}
		if err := dm.fillFromProfile(res, cfg); err != nil {
			return nil, err
		}
		res.UsedTraceFallback = true
		res.FallbackReason = countErr.Error()
		res.Tier = TierSimulated
	}
	res.finalizeBounds()
	res.Stats.BudgetUsed += meter.Total()
	res.Stats.TotalTime = dm.computeTime + time.Since(start)
	return res, nil
}

// fillFromInstanceBounds answers a hierarchy query for a globally degraded
// bounded-tier model: per level, the capacity misses lie in
// [0, accesses - compulsory_lo] and the total misses in
// [compulsory_lo, accesses]. The point fields carry the conservative upper
// bounds.
func (dm *DistanceModel) fillFromInstanceBounds(res *Result, cfg Config) {
	capBounds := counting.Interval{Lo: 0, Hi: dm.TotalAccesses - dm.compulsoryBounds.Lo}
	res.Levels = res.Levels[:0]
	for _, size := range cfg.CacheSizes {
		total := capBounds.Add(res.CompulsoryBounds).ClampHi(dm.TotalAccesses)
		res.Levels = append(res.Levels, LevelResult{
			CacheBytes:         size,
			CapacityMisses:     capBounds.Hi,
			TotalMisses:        total.Hi,
			CapacityMissBounds: capBounds,
			TotalMissBounds:    total,
		})
	}
	res.Tier = TierBounded
	res.FallbackReason = dm.boundedReason
	res.finalizeBounds()
}

// countSymbolic counts the capacity misses of every level. Fully
// associative levels (single-set geometry) share one pass of the counting
// engine (Algorithm 1); set-associative levels are counted per cache set,
// with the set partitions fanned out over the executor. Under ModeBounded,
// pieces and statements that degraded contribute certified intervals
// instead of failing.
func (dm *DistanceModel) countSymbolic(ctx context.Context, cfg Config, ex parwork.Exec, res *Result, meter *budget.Meter) error {
	tCap := time.Now()
	nLev := len(cfg.CacheSizes)
	// Split the levels by geometry: numSets == 1 is the classic fully
	// associative case (shared single counting pass over all such levels),
	// numSets > 1 is counted per set.
	type levelGeom struct{ sets, ways int64 }
	geoms := make([]levelGeom, nLev)
	var fullIdx, setIdx []int
	for i := range cfg.CacheSizes {
		numSets, ways, err := cfg.LevelGeometry(i)
		if err != nil {
			return fmt.Errorf("core: level %d: %w", i+1, err)
		}
		geoms[i] = levelGeom{numSets, ways}
		if numSets > 1 {
			if numSets > MaxAnalyticalSets {
				return fmt.Errorf("core: level %d partitions into %d sets, above the analytical limit of %d (raise the associativity or use the simulation tier)",
					i+1, numSets, MaxAnalyticalSets)
			}
			setIdx = append(setIdx, i)
		} else {
			fullIdx = append(fullIdx, i)
		}
	}
	if ex == nil {
		var release func()
		ex, release = dm.opts.executor()
		defer release()
	}
	levelBounds := make([]counting.Interval, nLev)
	levelPerStmt := make([]map[string]int64, nLev)
	var degradedReasons []string
	if len(fullIdx) > 0 {
		lines := make([]int64, len(fullIdx))
		for j, i := range fullIdx {
			lines[j] = cfg.CacheSizes[i] / cfg.LineSize
		}
		counter := newCapacityCounter(dm.opts, &res.Stats)
		counter.meter = meter
		counter.ctx = ctx
		counter.exec = ex
		arenaBase := presburger.ArenaCountersSnapshot()
		out, err := counter.Count(dm.distances, lines)
		arena := presburger.ArenaCountersSnapshot().Sub(arenaBase)
		res.Stats.ArenaHits += arena.Hits
		res.Stats.ArenaMisses += arena.Misses
		if err != nil {
			return err
		}
		for j, i := range fullIdx {
			levelBounds[i] = out.bounds[j]
			levelPerStmt[i] = out.perStmt[j]
		}
		degradedReasons = append(degradedReasons, out.degraded...)
	}
	for _, i := range setIdx {
		slc, err := dm.countSetAssocLevel(ctx, ex, meter, i, geoms[i].sets, geoms[i].ways)
		if err != nil {
			return err
		}
		levelBounds[i] = slc.bounds
		levelPerStmt[i] = slc.perStmt
		degradedReasons = append(degradedReasons, slc.degraded...)
		res.Stats.merge(&slc.stats)
		res.Stats.SetAssoc = append(res.Stats.SetAssoc, SetAssocLevelStats{
			Level: i, Sets: geoms[i].sets, Ways: geoms[i].ways, SetPieces: slc.pieces,
		})
	}
	// Statements whose distance polynomial degraded in the distance phase:
	// their capacity misses are certifiably within [0, instances] at every
	// level. The set-associative pass skips those statements' touched maps,
	// so the bound is never double counted.
	for _, stmt := range sortedKeys(dm.boundedStmts) {
		n := dm.stmtInstances[stmt]
		for l := 0; l < nLev; l++ {
			levelBounds[l] = levelBounds[l].Add(counting.Interval{Lo: 0, Hi: n})
			if levelPerStmt[l] == nil {
				levelPerStmt[l] = map[string]int64{}
			}
			levelPerStmt[l][stmt] = n
		}
		degradedReasons = append(degradedReasons, fmt.Sprintf("%s: %s", stmt, dm.boundedStmts[stmt]))
	}
	// A degraded piece with no box bound reports a saturated per-statement
	// count; the statement's instance count is always a certified cap.
	for _, m := range levelPerStmt {
		for stmt, v := range m {
			if n, ok := dm.stmtInstances[stmt]; ok && v > n {
				m[stmt] = n
			}
		}
	}
	res.Levels = res.Levels[:0]
	for i, size := range cfg.CacheSizes {
		capBounds := levelBounds[i]
		if !capBounds.IsExact() {
			// Certified cap: capacity misses are repeat accesses, so they
			// cannot exceed the non-compulsory access count. Exact counts are
			// left untouched.
			capBounds = capBounds.ClampHi(dm.TotalAccesses - dm.compulsoryBounds.Lo)
		}
		total := capBounds.Add(res.CompulsoryBounds).ClampHi(dm.TotalAccesses)
		res.Levels = append(res.Levels, LevelResult{
			CacheBytes:           size,
			CapacityMisses:       capBounds.Hi,
			TotalMisses:          total.Hi,
			PerStatementCapacity: levelPerStmt[i],
			CapacityMissBounds:   capBounds,
			TotalMissBounds:      total,
		})
	}
	if len(degradedReasons) > 0 || !res.CompulsoryBounds.IsExact() {
		res.Tier = TierBounded
		res.FallbackReason = degradationSummary(degradedReasons, res.CompulsoryBounds)
	}
	res.Stats.CapacityTime = time.Since(tCap)
	return nil
}

// degradationSummary folds the per-operation degradation reasons into one
// provenance string (first reason plus a count; the full list would repeat
// near-identical messages per piece).
func degradationSummary(reasons []string, compulsory counting.Interval) string {
	if !compulsory.IsExact() {
		reasons = append([]string{fmt.Sprintf("compulsory misses bounded to %v", compulsory)}, reasons...)
	}
	if len(reasons) == 0 {
		return ""
	}
	if len(reasons) == 1 {
		return reasons[0]
	}
	return fmt.Sprintf("%s (and %d more degraded operations)", reasons[0], len(reasons)-1)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ensureProfile lazily computes the exact stack distance profile of the
// trace (padded layout, like SimulateReference) exactly once, no matter how
// many CountMisses calls need it.
func (dm *DistanceModel) ensureProfile() error {
	dm.profileOnce.Do(func() {
		layout := scop.NewLayout(dm.prog, scop.LayoutPadded, dm.LineSize)
		cp, err := scop.Compile(dm.prog, layout)
		if err != nil {
			dm.profileErr = err
			return
		}
		dm.profile = reusedist.ProfileProgram(cp, dm.LineSize)
	})
	return dm.profileErr
}

// fillFromProfile fills the per-level miss counts of res from the exact
// trace profile; the profile answers any capacity, so this path shares the
// profile across hierarchies the same way the symbolic path shares the
// distances. The stack distance profile only answers fully associative
// geometries; a level with more than one cache set is answered by replaying
// the trace through a set-associative LRU simulation of just that geometry
// (still exact, still on the padded layout the model assumes).
func (dm *DistanceModel) fillFromProfile(res *Result, cfg Config) error {
	res.CompulsoryMisses = dm.profile.Compulsory
	var ref Reference
	haveRef := false
	setAssoc := make([]bool, len(cfg.CacheSizes))
	for i := range cfg.CacheSizes {
		numSets, _, err := cfg.LevelGeometry(i)
		if err != nil {
			return fmt.Errorf("core: level %d: %w", i+1, err)
		}
		setAssoc[i] = numSets > 1
		if setAssoc[i] && !haveRef {
			ref, err = SimulateSetAssocReference(dm.prog, cfg)
			if err != nil {
				return err
			}
			haveRef = true
		}
	}
	res.Levels = res.Levels[:0]
	for i, size := range cfg.CacheSizes {
		var capMisses int64
		if setAssoc[i] {
			capMisses = ref.TotalMisses[i] - res.CompulsoryMisses
		} else {
			capMisses = dm.profile.CapacityMissesFor(size / cfg.LineSize)
		}
		res.Levels = append(res.Levels, LevelResult{
			CacheBytes:     size,
			CapacityMisses: capMisses,
			TotalMisses:    capMisses + res.CompulsoryMisses,
		})
	}
	return nil
}

// clone deep-copies the stats so concurrent CountMisses calls never share
// the histogram map or the worker time slice.
func (s Stats) clone() Stats {
	out := s
	out.NonAffineByAffineDims = make(map[int]int, len(s.NonAffineByAffineDims))
	for k, v := range s.NonAffineByAffineDims {
		out.NonAffineByAffineDims[k] = v
	}
	out.CapacityWorkerTime = append([]time.Duration(nil), s.CapacityWorkerTime...)
	out.SetAssoc = make([]SetAssocLevelStats, len(s.SetAssoc))
	for i, sa := range s.SetAssoc {
		sa.SetPieces = append([]int(nil), sa.SetPieces...)
		out.SetAssoc[i] = sa
	}
	if len(out.SetAssoc) == 0 {
		out.SetAssoc = nil
	}
	return out
}

func cloneCounts(m map[string]int64) map[string]int64 {
	if m == nil {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
