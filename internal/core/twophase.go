package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
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

	// fallbackReason is non-empty when the model operates on an exact trace
	// profile instead of symbolic distances (ModeSim, or a failed symbolic
	// phase under ModeAuto). The profile is also capacity independent, so
	// trace models amortize across hierarchies exactly like symbolic ones.
	fallbackReason string
	profileOnce    sync.Once
	trace          *scop.CompiledProgram
	profile        reusedist.Profile
	profileErr     error

	// Bounded-tier state (ModeBounded only). stmtInstances holds the exact
	// per-statement instance counts — the anchor of every certified bound.
	// compulsoryBounds is the certified interval around CompulsoryMisses
	// (width 0 when exact). boundedStmts maps statements whose distance
	// polynomial could not be derived to the degradation reason; their
	// capacity misses are bounded by [0, instances]. When the whole distance
	// phase degraded, every statement is in it.
	stmtInstances    map[string]int64
	compulsoryBounds counting.Interval
	boundedStmts     map[string]string

	// Set-associative state, retained by the symbolic distance phase: the
	// polyhedral description and the raw touched-line union map (empty when
	// the whole phase degraded under ModeBounded).
	// CountMisses re-counts the touched map restricted to each cache set
	// when the query's geometry has more than one set — the set partition
	// depends on the hierarchy, so it cannot be precomputed here. Trace
	// models leave both unset and replay the trace instead.
	saInfo    *scop.PolyInfo
	saTouched presburger.UnionMap
}

// ComputeDistances runs the cache-independent phase of the analysis: it
// extracts the polyhedral description of the program and derives the stack
// distance quasi-polynomials and the compulsory misses for the given line
// size. The returned model answers CountMisses queries for any hierarchy
// sharing that line size without recomputing the distances.
//
// opts.Mode picks the rung of the degradation ladder. Every mode extracts
// and verifies the program first. ModeSim then builds the model from an
// exact stack distance profile of the trace without trying the symbolic
// pipeline: results are exact and shared across hierarchies like symbolic
// ones, but the construction cost is proportional to the trace length. It
// suits programs that are expensive to analyze symbolically, such as the
// deep loop nests tiling produces. Under ModeAuto, a program the symbolic
// pipeline cannot handle falls back to the same profile; results stay exact
// (CountMisses marks them with UsedTraceFallback) and are still shared
// across hierarchies. ModeExact returns the error instead.
func ComputeDistances(prog *scop.Program, lineSize int64, opts Options) (*DistanceModel, error) {
	return ComputeDistancesContext(context.Background(), prog, lineSize, opts)
}

// ComputeDistancesContext is ComputeDistances observing ctx: workers stop
// claiming items promptly after cancellation and the context error is
// returned. Under ModeBounded, operations that exceed opts.Budget or leave
// the supported fragment degrade to certified bounds instead of failing the
// phase.
func ComputeDistancesContext(ctx context.Context, prog *scop.Program, lineSize int64, opts Options) (*DistanceModel, error) {
	start := time.Now()
	if lineSize <= 0 {
		return nil, fmt.Errorf("core: line size must be positive")
	}
	if prog.IsParametric() {
		return nil, fmt.Errorf("core: program %s is parametric; use ComputeParametricModel (or Instantiate it first)", prog.Name)
	}
	info, err := extract(prog)
	if err != nil {
		return nil, err
	}
	meter := budget.New(ctx, opts.Budget)
	dm := &DistanceModel{Kernel: prog.Name, LineSize: lineSize, opts: opts, prog: prog}
	// Options.Exec is call scoped; the model outlives this call and must not
	// retain the caller's executor (later CountMisses calls build their own).
	dm.opts.Exec = nil
	dm.baseStats.NonAffineByAffineDims = map[int]int{}
	if opts.Mode == ModeSim {
		err = dm.useTrace("exact trace profiling requested")
	} else {
		ex, release := opts.Executor()
		err = dm.computeSymbolic(ctx, info, meter, ex)
		release()
		if err != nil && opts.Mode == ModeAuto && !budget.IsCancellation(err) {
			err = dm.useTrace(err.Error())
		}
	}
	if err != nil {
		return nil, err
	}
	dm.baseStats.BudgetUsed = meter.Total()
	dm.computeTime = time.Since(start)
	return dm, nil
}

// useTrace switches the model to the exact trace profile, for the given
// reason: ModeSim skipped the symbolic pipeline, or it failed under
// ModeAuto. Partial symbolic state and statistics are discarded (a later
// stage may fail after the stack distances succeeded): results answered
// from the profile must not carry distance-phase stats.
func (dm *DistanceModel) useTrace(reason string) error {
	if err := dm.ensureProfile(); err != nil {
		return err
	}
	dm.fallbackReason = reason
	dm.TotalAccesses = dm.profile.Accesses
	dm.CompulsoryMisses = dm.profile.Compulsory
	dm.distances = nil
	dm.perStmtCompulsory = nil
	dm.saInfo = nil
	dm.saTouched = presburger.UnionMap{}
	dm.baseStats = Stats{NonAffineByAffineDims: map[int]int{}}
	return nil
}

// countCompulsory fills the model's compulsory misses. Outside ModeBounded
// the count is exact and a failure fails the phase. Under ModeBounded it is
// exact if the budget allows, a certified interval otherwise, and
// [0, TotalAccesses] (always sound) when the count fails; only cancellation
// fails it. Only an exact count is attributed to statements.
func (dm *DistanceModel) countCompulsory(info *scop.PolyInfo, meter *budget.Meter) error {
	bounded := dm.opts.Mode == ModeBounded
	iv, perStmt, err := compulsoryMisses(info, dm.LineSize, bounded, meter.Op("compulsory count"))
	if err != nil {
		if !bounded || budget.IsCancellation(err) {
			return err
		}
		iv = counting.Interval{Lo: 0, Hi: dm.TotalAccesses}
	}
	iv = iv.ClampHi(dm.TotalAccesses)
	dm.compulsoryBounds = iv
	dm.CompulsoryMisses = iv.Hi
	dm.perStmtCompulsory = perStmt
	return nil
}

// stackDistancePhase runs the stack distance stage (section 3.1) of either
// model and, on success, records the distance-phase Stats: its time, the
// frontier, coalesce, arena and steal/split counters, and the number of
// distance pieces. The coalesce, arena and scheduler counters are
// process-wide; their deltas around the phase attribute its activity to the
// model. Under concurrent model construction (design-space sweeps) the
// snapshot windows overlap, so each model's delta can include the activity
// of the others: treat them as observability, not as an exact partition.
func stackDistancePhase(ctx context.Context, info *scop.PolyInfo, lineSize int64, ex parwork.Exec, meter *budget.Meter, bounded bool, stats *Stats) ([]StatementDistance, map[string]string, presburger.UnionMap, error) {
	start := time.Now()
	coalesceBase := presburger.CoalesceCountersSnapshot()
	arenaBase := presburger.ArenaCountersSnapshot()
	poolBase := ex.PoolStats()
	var fs frontierStats
	distances, degraded, touched, err := computeStackDistances(ctx, info, lineSize, ex, &fs, meter, bounded)
	if err != nil {
		return nil, nil, presburger.UnionMap{}, err
	}
	stats.StackDistanceTime = time.Since(start)
	stats.PeakBasicMaps = int(fs.peak.Load())
	stats.BasicMapsBeforeCoalesce = fs.before.Load()
	stats.BasicMapsAfterCoalesce = fs.after.Load()
	hits := presburger.CoalesceCountersSnapshot().Sub(coalesceBase)
	stats.CoalesceDedup = hits.Dedup
	stats.CoalesceSubsumed = hits.Subsumed
	stats.CoalesceAdjacent = hits.Adjacent
	stats.CoalesceRedundantCons = hits.RedundantConstraints
	arena := presburger.ArenaCountersSnapshot().Sub(arenaBase)
	stats.ArenaHits = arena.Hits
	stats.ArenaMisses = arena.Misses
	pool := ex.PoolStats()
	stats.Steals = pool.Steals - poolBase.Steals
	stats.Splits = pool.Splits - poolBase.Splits
	stats.DistancePieces = numPieces(distances)
	return distances, degraded, touched, nil
}

// computeSymbolic fills the model from the symbolic pipeline: the access
// and instance counts, stack distances (section 3.1) and compulsory misses
// (section 3.4), together with the statistics of the distance phase. Under
// ModeBounded a failed stack distance stage degrades every statement: no
// distance polynomials at all, but the instance counts stay exact and the
// compulsory misses are still attempted, so every level's misses are
// certifiably between the compulsory lower bound and the total access
// count.
func (dm *DistanceModel) computeSymbolic(ctx context.Context, info *scop.PolyInfo, meter *budget.Meter, ex parwork.Exec) error {
	var err error
	if dm.TotalAccesses, dm.stmtInstances, err = totalAccesses(info); err != nil {
		return err
	}
	bounded := dm.opts.Mode == ModeBounded
	distances, degraded, touched, err := stackDistancePhase(ctx, info, dm.LineSize, ex, meter, bounded, &dm.baseStats)
	if err != nil {
		if !bounded || budget.IsCancellation(err) {
			return err
		}
		degraded = make(map[string]string, len(dm.stmtInstances))
		for stmt := range dm.stmtInstances {
			degraded[stmt] = err.Error()
		}
	}
	dm.saInfo = info
	dm.saTouched = touched
	dm.distances = distances
	dm.boundedStmts = degraded

	tComp := time.Now()
	if err := dm.countCompulsory(info, meter); err != nil {
		return err
	}
	dm.baseStats.CompulsoryTime = time.Since(tComp)
	return nil
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

// CountMisses runs the capacity-dependent phase: it classifies the stack
// distances of the model against every capacity of the hierarchy and
// returns a Result identical to Analyze(prog, cfg, opts) — the distance
// phase is simply not paid again. cfg.LineSize must match the line size the
// distances were computed for. The counting engine uses the parallelism of
// the options the model was built with.
func (dm *DistanceModel) CountMisses(cfg Config) (*Result, error) {
	return dm.CountMissesExec(context.Background(), cfg, nil)
}

// CountMissesExec is CountMisses observing ctx and scheduling the counting
// engine on the given executor instead of spinning up workers of its own:
// counting workers stop claiming pieces promptly after cancellation and the
// context error is returned. Callers that already run on a pool
// (internal/explore sweeps) pass their Worker so capacity pieces become
// stealable units of the shared pool. A nil ex
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
	meter := budget.New(ctx, dm.opts.Budget)
	res := &Result{Kernel: dm.Kernel, TotalAccesses: dm.TotalAccesses, Stats: dm.baseStats.clone()}
	res.CompulsoryMisses = dm.CompulsoryMisses
	res.CompulsoryBounds = dm.compulsoryBounds
	res.PerStatementCompulsory = maps.Clone(dm.perStmtCompulsory)
	if dm.fallbackReason != "" {
		if err := dm.answerFromTrace(res, cfg, dm.fallbackReason); err != nil {
			return nil, err
		}
	} else if countErr := dm.countSymbolic(ctx, cfg, ex, res, meter); countErr != nil {
		if budget.IsCancellation(countErr) || dm.opts.Mode != ModeAuto {
			return nil, countErr
		}
		if err := dm.answerFromTrace(res, cfg, countErr.Error()); err != nil {
			return nil, err
		}
	}
	res.Stats.BudgetUsed += meter.Total()
	res.Stats.TotalTime = dm.computeTime + time.Since(start)
	return res, nil
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
		ex, release = dm.opts.Executor()
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
		arenaBase := presburger.ArenaCountersSnapshot()
		out, err := newCapacityCounter(dm.opts, &res.Stats).Count(ctx, ex, meter, dm.distances, lines)
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
	for _, stmt := range slices.Sorted(maps.Keys(dm.boundedStmts)) {
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
	res.setLevels(cfg.CacheSizes, levelBounds, levelPerStmt, degradedReasons)
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

// ensureProfile lazily compiles the trace (padded layout, like
// SimulateReference) and computes its exact stack distance profile exactly
// once, no matter how many CountMisses calls need it.
func (dm *DistanceModel) ensureProfile() error {
	dm.profileOnce.Do(func() {
		dm.trace, dm.profileErr = compileTrace(dm.prog, dm.LineSize)
		if dm.profileErr == nil {
			dm.profile = reusedist.ProfileProgram(dm.trace, dm.LineSize)
		}
	})
	return dm.profileErr
}

// answerFromTrace fills the per-level miss counts of res from the exact
// trace profile and marks res as trace-answered (TierSimulated) with the
// given reason; it is the one place a result leaves the symbolic tiers. The
// profile answers any capacity, so this path shares the profile across
// hierarchies the same way the symbolic path shares the distances. The
// stack distance profile only answers fully associative geometries; the
// levels with more than one cache set are answered by replaying the
// compiled trace once through set-associative LRU caches of those levels
// (still exact, still on the padded layout the model assumes).
func (dm *DistanceModel) answerFromTrace(res *Result, cfg Config, reason string) error {
	if err := dm.ensureProfile(); err != nil {
		return err
	}
	res.CompulsoryMisses = dm.profile.Compulsory
	res.CompulsoryBounds = counting.Exact(res.CompulsoryMisses)
	capBounds := make([]counting.Interval, len(cfg.CacheSizes))
	var setLevels []int
	for i, size := range cfg.CacheSizes {
		numSets, _, err := cfg.LevelGeometry(i)
		if err != nil {
			return fmt.Errorf("core: level %d: %w", i+1, err)
		}
		if numSets > 1 {
			setLevels = append(setLevels, i)
			continue
		}
		capBounds[i] = counting.Exact(dm.profile.CapacityMissesFor(size / cfg.LineSize))
	}
	if len(setLevels) > 0 {
		ref, err := replaySetAssoc(dm.trace, cfg, setLevels)
		if err != nil {
			return err
		}
		for j, i := range setLevels {
			capBounds[i] = counting.Exact(ref.TotalMisses[j] - res.CompulsoryMisses)
		}
	}
	res.setLevels(cfg.CacheSizes, capBounds, nil, nil)
	res.UsedTraceFallback = true
	res.FallbackReason = reason
	res.Tier = TierSimulated
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
