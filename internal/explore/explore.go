// Package explore implements design-space exploration with the analytical
// cache model: it evaluates a grid of (kernel × tile size × cache hierarchy)
// configurations and reports the best configuration per kernel, the use case
// the paper motivates the model with — sweeps that would take days with a
// trace-driven simulator finish interactively because the model's runtime is
// problem-size independent.
//
// The engine exploits the structure of the analysis to make sweeps cheap.
// The backward stack distance of every access is independent of the cache
// capacities, so the expensive symbolic phase (core.ComputeDistances) runs
// exactly once per tiled program variant and line size; every hierarchy of
// the grid then only pays the comparatively fast counting phase
// (core.DistanceModel.CountMisses). Tile sizes that leave a kernel
// unchanged (no rectangular band, or tiles covering the whole extent of an
// untileable band) collapse onto the untiled variant and share its distance
// model too. Both phases run on one parwork pool: configurations fan out as
// its items, and every analysis schedules its own units on the worker
// driving it, so Options.Parallelism alone sizes the sweep. Results are
// deterministic at every worker count: with the default TiledSymbolic
// strategy every result is bit-identical to a standalone core.Analyze call
// with the same options, while the TiledProfile strategy builds the models
// of tiled variants from an exact trace profile instead (still exact, much
// cheaper for the deep loop nests tiling produces, and equally shared
// across hierarchies).
package explore

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"haystack/internal/core"
	"haystack/internal/parwork"
	"haystack/internal/scop"
	"haystack/internal/tiling"
)

// Kernel is one program of the sweep.
type Kernel struct {
	// Name identifies the kernel in evaluations and reports.
	Name string
	// Program is the untiled program; tiled variants are derived from it.
	Program *scop.Program
}

// Grid spans the design space: every kernel is evaluated at every tile size
// against every cache hierarchy.
type Grid struct {
	Kernels []Kernel
	// TileSizes lists the tile sizes to evaluate; values of one or below
	// select the untiled program. An empty list evaluates only the untiled
	// program. Tiling uses the rectangular tiler of internal/tiling.
	TileSizes []int64
	// Hierarchies lists the cache configurations to evaluate. Hierarchies
	// may differ in line size; the engine builds one distance model per
	// (variant, line size) pair.
	Hierarchies []core.Config
}

// TiledAnalysis selects how the distance models of tiled program variants
// are built; untiled variants always use the symbolic pipeline.
type TiledAnalysis int

const (
	// TiledSymbolic runs the full symbolic pipeline on tiled variants, like
	// on untiled ones. Every result is bit-identical to a standalone
	// core.Analyze call. Tiling doubles the loop depth, but the coalescing
	// layer of internal/presburger keeps the deeper compositions tractable,
	// so this problem-size-independent strategy is the default.
	TiledSymbolic TiledAnalysis = iota
	// TiledProfile builds the models of tiled variants from an exact stack
	// distance profile of the trace (core.ModeSim).
	// Results are still exact and still shared across all hierarchies of
	// the grid, but the model construction costs one trace replay per tiled
	// variant instead of being problem-size independent. Results of tiled
	// grid points carry UsedTraceFallback.
	TiledProfile
)

// Options configures a sweep.
type Options struct {
	// Analysis holds the model options of every evaluation. Its
	// Parallelism and Exec are ignored: every analysis runs on the sweep's
	// pool. Analysis.Mode selects the degradation ladder rung of every grid
	// point (core.ComputeDistancesContext resolves it); ModeSim routes all
	// variants, tiled and untiled, through exact trace profiling.
	Analysis core.Options
	// Parallelism is the worker count of the sweep's pool, which runs the
	// configurations and the analyses' own units alike; zero or below
	// selects the number of CPUs.
	Parallelism int
	// Tiled selects the analysis strategy of tiled variants (default
	// TiledSymbolic).
	Tiled TiledAnalysis
}

// DefaultOptions enables every model optimization and sizes the pool by the
// number of CPUs. Idle workers steal units across analyses, so when the
// distance phase has fewer jobs than workers the spare cores go to the
// individual analyses without any inner/outer split.
func DefaultOptions() Options {
	return Options{Analysis: core.DefaultOptions()}
}

// Evaluation is the model result of one grid point.
type Evaluation struct {
	Kernel string
	// TileSize is the requested tile size (one for the untiled program).
	TileSize int64
	// Tiled reports whether the tiler actually transformed the program; when
	// false the evaluation used the untiled variant (and its shared distance
	// model).
	Tiled     bool
	Hierarchy core.Config
	// Result is the model outcome of this grid point. Grid points whose
	// tile sizes collapsed onto the same variant share one Result; treat it
	// as read-only.
	Result *core.Result
}

// Stats describes the work a sweep performed.
type Stats struct {
	// Kernels, Variants, and Evaluations count the kernels of the grid, the
	// distinct tiled program variants derived from them, and the evaluated
	// grid points.
	Kernels     int
	Variants    int
	Evaluations int
	// DistanceComputations is the number of ComputeDistances calls the sweep
	// performed: exactly one per distinct (variant, line size) pair, no
	// matter how many hierarchies the grid spans.
	DistanceComputations int
	// CountingPasses is the number of distinct (variant, hierarchy)
	// counting passes; grid points whose tile size collapsed onto the same
	// variant share one pass (and one Result).
	CountingPasses int
	// DistancePhase and CountPhase are the wall-clock times of the two
	// pipeline phases; TotalTime is the wall-clock time of the whole sweep.
	DistancePhase time.Duration
	CountPhase    time.Duration
	TotalTime     time.Duration
}

// Result holds the evaluations of a sweep in deterministic grid order:
// kernel-major, then tile size, then hierarchy.
type Result struct {
	Evaluations []Evaluation
	Stats       Stats
}

// variant is one distinct tiled program derived from a kernel.
type variant struct {
	kernel  int
	tile    int64
	program *scop.Program
	tiled   bool
	// models maps a line size to the index of the distance model computed
	// for this variant at that line size.
	models map[int64]int
}

// modelJob identifies one ComputeDistances call of the sweep.
type modelJob struct {
	variant  int
	lineSize int64
	model    *core.DistanceModel
}

// Sweep evaluates the full grid. Tiled variants are derived first (the
// tiler is syntactic and cheap), then the distance models of all distinct
// (variant, line size) pairs are computed on the outer worker pool, and
// finally every (variant, hierarchy) grid point is counted on the same
// pool. Any failing grid point fails the sweep; under core.ModeAuto (the
// default), programs outside the symbolic fragment degrade to exact trace
// profiling instead of failing.
func Sweep(grid Grid, opts Options) (*Result, error) {
	return SweepContext(context.Background(), grid, opts)
}

// SweepContext is Sweep observing ctx: both worker pools stop claiming jobs
// promptly after cancellation, the analyses themselves observe the context,
// and the context error is returned.
func SweepContext(ctx context.Context, grid Grid, opts Options) (*Result, error) {
	start := time.Now()
	if len(grid.Kernels) == 0 {
		return nil, fmt.Errorf("explore: the grid has no kernels")
	}
	if len(grid.Hierarchies) == 0 {
		return nil, fmt.Errorf("explore: the grid has no cache hierarchies")
	}
	for i, h := range grid.Hierarchies {
		if h.LineSize <= 0 {
			return nil, fmt.Errorf("explore: hierarchy %d has non-positive line size %d", i, h.LineSize)
		}
		if len(h.CacheSizes) == 0 {
			return nil, fmt.Errorf("explore: hierarchy %d has no cache sizes", i)
		}
		if err := h.Validate(); err != nil {
			return nil, fmt.Errorf("explore: hierarchy %d: %w", i, err)
		}
	}
	for i, k := range grid.Kernels {
		if k.Program == nil {
			return nil, fmt.Errorf("explore: kernel %d (%s) has no program", i, k.Name)
		}
	}
	tiles := normalizeTiles(grid.TileSizes)
	lineSizes := uniqueLineSizes(grid.Hierarchies)

	// Derive the distinct tiled variants of every kernel. Tile sizes the
	// tiler cannot apply collapse onto the untiled variant, so their grid
	// points share its distance model instead of recomputing it.
	var variants []*variant
	variantOf := map[[2]int64]int{} // (kernel, tile) -> variant index
	for ki, k := range grid.Kernels {
		untiled := -1
		for _, tile := range tiles {
			prog, tiled := k.Program, false
			if tile > 1 {
				prog, tiled = tiling.Tile(k.Program, tile)
			}
			if !tiled {
				if untiled < 0 {
					variants = append(variants, &variant{kernel: ki, tile: 1, program: k.Program, models: map[int64]int{}})
					untiled = len(variants) - 1
				}
				variantOf[[2]int64{int64(ki), tile}] = untiled
				continue
			}
			variants = append(variants, &variant{kernel: ki, tile: tile, program: prog, tiled: true, models: map[int64]int{}})
			variantOf[[2]int64{int64(ki), tile}] = len(variants) - 1
		}
	}

	// Phase 1: one distance model per (variant, line size), fanned out over
	// the outer pool.
	tDist := time.Now()
	var jobs []*modelJob
	for vi, v := range variants {
		for _, ls := range lineSizes {
			v.models[ls] = len(jobs)
			jobs = append(jobs, &modelJob{variant: vi, lineSize: ls})
		}
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// One pool serves the whole sweep: configurations fan out as outer
	// groups, and every analysis schedules its own splittable units (lexmax
	// basic maps, touched-line counts, capacity pieces) onto the same pool
	// through the worker driving it. Idle workers steal across jobs, so the
	// two phases need no static inner/outer core split; results are
	// bit-identical at every worker count.
	ex, releasePool := parwork.NewExec(workers)
	defer releasePool()
	err := ex.RunGroup(ctx, len(jobs), func(w *parwork.Worker, idx int) error {
		job := jobs[idx]
		v := variants[job.variant]
		// The analysis runs on this worker: Options.Exec is call scoped, so
		// the per-job copy hands the worker to exactly one call.
		jobOpts := opts.Analysis
		jobOpts.Exec = w
		if v.tiled && opts.Tiled == TiledProfile {
			jobOpts.Mode = core.ModeSim
		}
		dm, err := core.ComputeDistancesContext(ctx, v.program, job.lineSize, jobOpts)
		if err != nil {
			return fmt.Errorf("explore: distances of %s (tile %d, line %d): %w",
				grid.Kernels[v.kernel].Name, v.tile, job.lineSize, err)
		}
		job.model = dm
		return nil
	})
	if err != nil {
		return nil, err
	}
	distPhase := time.Since(tDist)

	// Phase 2: count every grid point against its hierarchy, again on the
	// outer pool. Evaluations are index-addressed, so the grid order of the
	// result does not depend on scheduling.
	tCount := time.Now()
	evals := make([]Evaluation, 0, len(grid.Kernels)*len(tiles)*len(grid.Hierarchies))
	var evalVariant []int
	// Tile sizes that collapsed onto the same variant produce identical
	// grid points; they stay in the result (the grid shape is the caller's)
	// but are counted only once and share the Result.
	type evalKey struct {
		variant, hier int
	}
	firstEval := map[evalKey]int{}
	var uniqueEvals []int
	repOf := make(map[int]int)
	for ki := range grid.Kernels {
		for _, tile := range tiles {
			vi := variantOf[[2]int64{int64(ki), tile}]
			for hi, h := range grid.Hierarchies {
				idx := len(evals)
				evals = append(evals, Evaluation{
					Kernel:    grid.Kernels[ki].Name,
					TileSize:  tile,
					Tiled:     variants[vi].tiled,
					Hierarchy: h,
				})
				evalVariant = append(evalVariant, vi)
				key := evalKey{variant: vi, hier: hi}
				if rep, ok := firstEval[key]; ok {
					repOf[idx] = rep
				} else {
					firstEval[key] = idx
					uniqueEvals = append(uniqueEvals, idx)
				}
			}
		}
	}
	// The counting phase shares the same pool: each pass schedules its
	// capacity pieces through the worker that picked it up, and idle workers
	// steal pieces across passes, so no separate inner/outer balancing is
	// needed.
	err = ex.RunGroup(ctx, len(uniqueEvals), func(w *parwork.Worker, i int) error {
		e := &evals[uniqueEvals[i]]
		v := variants[evalVariant[uniqueEvals[i]]]
		dm := jobs[v.models[e.Hierarchy.LineSize]].model
		res, err := dm.CountMissesExec(ctx, e.Hierarchy, w)
		if err != nil {
			return fmt.Errorf("explore: counting %s (tile %d, caches %v): %w",
				e.Kernel, e.TileSize, e.Hierarchy.CacheSizes, err)
		}
		e.Result = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for idx, rep := range repOf {
		evals[idx].Result = evals[rep].Result
	}

	return &Result{
		Evaluations: evals,
		Stats: Stats{
			Kernels:              len(grid.Kernels),
			Variants:             len(variants),
			Evaluations:          len(evals),
			DistanceComputations: len(jobs),
			CountingPasses:       len(uniqueEvals),
			DistancePhase:        distPhase,
			CountPhase:           time.Since(tCount),
			TotalTime:            time.Since(start),
		},
	}, nil
}

// normalizeTiles clamps tile sizes to at least one and removes duplicates,
// preserving the caller's order; an empty request means untiled only.
func normalizeTiles(tiles []int64) []int64 {
	if len(tiles) == 0 {
		return []int64{1}
	}
	seen := map[int64]bool{}
	var out []int64
	for _, t := range tiles {
		if t < 1 {
			t = 1
		}
		if seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	return out
}

// uniqueLineSizes collects the distinct line sizes of the hierarchies in
// order of appearance.
func uniqueLineSizes(hierarchies []core.Config) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, h := range hierarchies {
		if seen[h.LineSize] {
			continue
		}
		seen[h.LineSize] = true
		out = append(out, h.LineSize)
	}
	return out
}
