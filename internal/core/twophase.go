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
// symbolic pipeline: results are exact and shared across hierarchies like
// symbolic ones, but the construction cost is proportional to the trace
// length. It suits programs that are expensive to analyze symbolically,
// such as the deep loop nests tiling produces. Under ModeAuto, a program
// the symbolic pipeline cannot handle falls back to the same profile;
// results stay exact (CountMisses marks them with UsedTraceFallback) and are
// still shared across hierarchies. ModeExact returns the error instead.
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
	if opts.Mode == ModeSim {
		return computeDistancesByProfiling(prog, lineSize)
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
	ex, release := opts.executor()
	defer release()

	dm.TotalAccesses, dm.stmtInstances, err = totalAccesses(info)
	if err != nil {
		return nil, err
	}

	if symErr := dm.computeSymbolic(ctx, info, meter, ex); symErr != nil {
		switch {
		case budget.IsCancellation(symErr):
			return nil, symErr
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

// computeDistancesByProfiling is the ModeSim rung of ComputeDistances: it
// builds the model from an exact stack distance profile of the trace,
// without attempting the symbolic pipeline. Results carry UsedTraceFallback
// so the provenance stays visible.
func computeDistancesByProfiling(prog *scop.Program, lineSize int64) (*DistanceModel, error) {
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

// computeSymbolic fills the model from the symbolic pipeline: stack
// distances (section 3.1) and compulsory misses (section 3.4), together
// with the statistics of the distance phase. Under ModeBounded a failed
// stack distance stage degrades every statement: no distance polynomials at
// all, but the instance counts stay exact and the compulsory misses are
// still attempted, so every level's misses are certifiably between the
// compulsory lower bound and the total access count.
func (dm *DistanceModel) computeSymbolic(ctx context.Context, info *scop.PolyInfo, meter *budget.Meter, ex parwork.Exec) error {
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
	if dm.fallbackReason != "" {
		if err := dm.fillFromProfile(res, cfg); err != nil {
			return nil, err
		}
		res.UsedTraceFallback = true
		res.FallbackReason = dm.fallbackReason
		res.Tier = TierSimulated
		res.Stats.TotalTime = dm.computeTime + time.Since(start)
		return res, nil
	}
	res.CompulsoryMisses = dm.CompulsoryMisses
	res.CompulsoryBounds = dm.compulsoryBounds
	res.PerStatementCompulsory = cloneCounts(dm.perStmtCompulsory)
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
	res.CompulsoryBounds = counting.Exact(res.CompulsoryMisses)
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
	capBounds := make([]counting.Interval, len(cfg.CacheSizes))
	for i, size := range cfg.CacheSizes {
		if setAssoc[i] {
			capBounds[i] = counting.Exact(ref.TotalMisses[i] - res.CompulsoryMisses)
		} else {
			capBounds[i] = counting.Exact(dm.profile.CapacityMissesFor(size / cfg.LineSize))
		}
	}
	res.setLevels(cfg.CacheSizes, capBounds, nil, nil)
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
