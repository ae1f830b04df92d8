// Package haystack is a fast analytical model of fully associative caches
// with least-recently-used replacement, reproducing "A Fast Analytical Model
// of Fully Associative Caches" (Gysi, Grosser, Brandner, Hoefler; PLDI 2019).
//
// The model analyzes static control programs — affine loop nests declared
// with the Program builder — and predicts their compulsory and capacity
// misses on a hierarchy of fully associative LRU caches without enumerating
// the memory trace: the backward stack distance of every access is derived
// symbolically as a piecewise quasi-polynomial and the misses are obtained by
// symbolic counting. The analysis is split into a cache-independent phase
// (ComputeDistances) and a cheap per-hierarchy counting phase
// (DistanceModel.CountMisses), so design-space sweeps over many cache
// hierarchies pay the expensive phase once — see Analyze for the one-shot
// composition. Every analysis, ModeSim included, has one front door: the
// program is validated and extracted into its polyhedral form once, that
// form is statically verified (in-bounds accesses, a well-formed schedule),
// and an invalid program is refused with an error listing the findings
// before any modeling work; there is no opt-out, since the check costs
// milliseconds. The package also bundles a trace-driven cache simulator
// (a Dinero IV stand-in), an exact reuse-distance profiler, and the thirty
// PolyBench kernels used in the paper's evaluation.
//
// # Quick start
//
//	p := haystack.NewProgram("example")
//	a := p.NewArray("A", haystack.ElemFloat64, 1024)
//	i := haystack.V("i")
//	p.Add(haystack.For(i, haystack.C(0), haystack.C(1024),
//		haystack.Stmt("S0", haystack.Read(a, haystack.X(i)))))
//
//	res, err := haystack.Analyze(p, haystack.DefaultConfig(), haystack.DefaultOptions())
//	if err != nil { ... }
//	fmt.Println(res.CompulsoryMisses, res.Levels[0].TotalMisses)
package haystack

import (
	"context"

	"haystack/internal/cachesim"
	"haystack/internal/core"
	"haystack/internal/counting"
	"haystack/internal/polybench"
	"haystack/internal/scop"
)

// Program construction -------------------------------------------------------

// Program is a static control program: the input of the model.
type Program = scop.Program

// Array is a multi-dimensional array accessed by the program.
type Array = scop.Array

// Var is a loop variable.
type Var = scop.Var

// Expr is an affine expression over loop variables.
type Expr = scop.Expr

// Access is one array reference of a statement.
type Access = scop.Access

// Node is a loop or statement of the program tree.
type Node = scop.Node

// Element sizes of the common data types.
const (
	ElemFloat32 = scop.ElemFloat32
	ElemFloat64 = scop.ElemFloat64
	ElemInt32   = scop.ElemInt32
)

// NewProgram returns an empty program with the given name.
func NewProgram(name string) *Program { return scop.NewProgram(name) }

// V returns the loop variable with the given name.
func V(name string) Var { return scop.V(name) }

// C returns the constant affine expression n.
func C(n int64) Expr { return scop.C(n) }

// X returns the affine expression consisting of the loop variable v.
func X(v Var) Expr { return scop.X(v) }

// For builds a loop over [lower, upper) with unit stride.
func For(v Var, lower, upper Expr, body ...Node) Node { return scop.For(v, lower, upper, body...) }

// Stmt builds a statement with the given array accesses (in program order).
func Stmt(name string, accesses ...Access) Node { return scop.Stmt(name, accesses...) }

// Read builds a read access of an array element.
func Read(a *Array, index ...Expr) Access { return scop.Read(a, index...) }

// Write builds a write access of an array element.
func Write(a *Array, index ...Expr) Access { return scop.Write(a, index...) }

// Cache model -----------------------------------------------------------------

// Config describes the modeled cache hierarchy (line size and per-level
// capacities in bytes); every level is a fully associative LRU cache.
type Config = core.Config

// Options configures the analysis: it toggles the optimizations of the miss
// counting stage (equalization, rasterization, partial enumeration), selects
// the rung of the degradation ladder via Mode, caps per-operation cost via
// Budget, and sets the number of worker goroutines via Parallelism (zero
// uses all cores; results are bit-identical at every parallelism level) or
// hands the analysis a shared executor via Exec. Input verification is not
// an option: every symbolic analysis runs it.
type Options = core.Options

// Result is the outcome of analyzing a program.
type Result = core.Result

// LevelResult holds the modeled misses of one cache level.
type LevelResult = core.LevelResult

// Stats describes where the model spent its time and how many pieces it
// counted.
type Stats = core.Stats

// Mode selects the rung of the graceful degradation ladder an analysis runs
// on: ModeExact (the zero value) fails when the symbolic pipeline degrades,
// ModeAuto (selected by DefaultOptions) answers from exact trace profiling
// instead, ModeBounded answers with certified interval bounds, and ModeSim
// verifies the program, then skips the symbolic pipeline.
type Mode = core.Mode

const (
	// ModeExact demands exact symbolic results and fails otherwise (the
	// zero value).
	ModeExact = core.ModeExact
	// ModeAuto falls back to exact trace profiling where the symbolic
	// pipeline fails (the DefaultOptions rung).
	ModeAuto = core.ModeAuto
	// ModeBounded degrades failed operations to certified interval bounds.
	ModeBounded = core.ModeBounded
	// ModeSim answers from exact trace profiling without symbolic analysis.
	ModeSim = core.ModeSim
)

// ParseMode parses a -mode flag value ("exact", "auto", "bounded", "sim").
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// Tier reports which rung of the degradation ladder produced a Result.
type Tier = core.Tier

const (
	// TierExact marks fully exact results (width-zero bounds).
	TierExact = core.TierExact
	// TierBounded marks results carrying certified interval bounds.
	TierBounded = core.TierBounded
	// TierSimulated marks results answered from a trace profile.
	TierSimulated = core.TierSimulated
)

// Interval is a certified inclusive bound [Lo, Hi] on an exact count; exact
// results carry width-zero intervals.
type Interval = counting.Interval

// Reference holds exact trace-based miss counts used for validation.
type Reference = core.Reference

// DefaultConfig returns the cache configuration of the paper's test system
// (64-byte lines, 32 KiB L1, 1 MiB L2).
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultOptions enables every optimization of the model and selects
// ModeAuto.
func DefaultOptions() Options { return core.DefaultOptions() }

// Analyze runs the analytical cache model on a program: it composes the two
// analysis phases, ComputeDistances and DistanceModel.CountMisses, for a
// single cache hierarchy.
func Analyze(p *Program, cfg Config, opts Options) (*Result, error) {
	return core.Analyze(p, cfg, opts)
}

// AnalyzeContext is Analyze observing ctx: workers stop claiming work
// promptly after cancellation and the context error is returned, so a
// deadline is a context.WithTimeout around the call. Combined with
// Options.Mode and Options.Budget it is the entry point of the graceful
// degradation ladder.
func AnalyzeContext(ctx context.Context, p *Program, cfg Config, opts Options) (*Result, error) {
	return core.AnalyzeContext(ctx, p, cfg, opts)
}

// DistanceModel is the reusable, cache-capacity-independent half of the
// analysis: the symbolic stack distances of one program at a fixed cache
// line size. One model answers CountMisses queries for arbitrarily many
// cache hierarchies, so design-space sweeps pay the expensive distance
// phase exactly once per program variant. It is safe for concurrent
// CountMisses calls.
type DistanceModel = core.DistanceModel

// ComputeDistances runs the cache-independent phase of the analysis for the
// given cache line size. Use the returned model's CountMisses to evaluate
// cache hierarchies (their LineSize must match); each call returns a Result
// identical to Analyze with the same options. With Options.Mode set to
// ModeSim the program is still verified, but the model comes from an exact
// stack distance profile of the trace instead of the symbolic pipeline:
// equally exact and equally reusable across hierarchies, at a cost
// proportional to the trace length — the choice for programs the symbolic
// pipeline handles slowly, such as the deep loop nests tiling produces.
func ComputeDistances(p *Program, lineSize int64, opts Options) (*DistanceModel, error) {
	return core.ComputeDistances(p, lineSize, opts)
}

// ComputeDistancesContext is ComputeDistances observing ctx.
func ComputeDistancesContext(ctx context.Context, p *Program, lineSize int64, opts Options) (*DistanceModel, error) {
	return core.ComputeDistancesContext(ctx, p, lineSize, opts)
}

// SimulateReference computes exact miss counts by replaying the program
// trace through a stack distance profiler with the padded array layout the
// model assumes; it is the ground truth the model is validated against.
func SimulateReference(p *Program, cfg Config) (Reference, error) {
	return core.SimulateReference(p, cfg)
}

// Parametric analysis ---------------------------------------------------------

// ParametricModel is the fully problem-size-independent form of the
// analysis: a program with symbolic size parameters (Program.NewParam,
// Program.NewArrayP) is analyzed once, and every concrete size is an
// instantiation — Eval returns the Result a concrete Analyze of the
// instantiated program would produce. It is safe for concurrent Eval calls.
type ParametricModel = core.ParametricModel

// ErrNonParametric reports that a pipeline stage cannot handle a piece of a
// parametric analysis symbolically in the program parameters; errors from
// ComputeParametricModel wrap it.
var ErrNonParametric = core.ErrNonParametric

// ComputeParametricModel analyzes a parametric program once for all problem
// sizes at the given cache line size.
func ComputeParametricModel(p *Program, lineSize int64, opts Options) (*ParametricModel, error) {
	return core.ComputeParametricModel(p, lineSize, opts)
}

// ParametricKernel is a PolyBench kernel with symbolic problem-size
// parameters and per-Size standard bindings.
type ParametricKernel = polybench.ParametricKernel

// ParametricKernels returns the PolyBench kernels available in parametric
// form.
func ParametricKernels() []ParametricKernel { return polybench.ParametricKernels() }

// ParametricByName returns the named parametric kernel.
func ParametricByName(name string) (ParametricKernel, bool) { return polybench.ParametricByName(name) }

// Simulation ------------------------------------------------------------------

// SimConfig describes a cache hierarchy for the trace-driven simulator,
// which also supports set-associative caches, pseudo-LRU replacement, and a
// next-line prefetcher.
type SimConfig = cachesim.Config

// SimLevel describes one simulated cache level.
type SimLevel = cachesim.LevelConfig

// SimResult holds per-level simulation counters.
type SimResult = cachesim.Result

// Replacement policies of the simulator.
const (
	LRU  = cachesim.LRU
	PLRU = cachesim.PLRU
)

// Simulate replays the exact memory trace of the program (natural row-major
// array layout) through the given cache hierarchy, like the Dinero IV
// simulator the paper compares against.
func Simulate(p *Program, cfg SimConfig) (SimResult, error) {
	return core.DetailedSimulation(p, cfg)
}

// PolyBench --------------------------------------------------------------------

// PolyBenchSize selects a PolyBench problem size.
type PolyBenchSize = polybench.Size

// PolyBench problem sizes.
const (
	Mini       = polybench.Mini
	Small      = polybench.Small
	Medium     = polybench.Medium
	Large      = polybench.Large
	ExtraLarge = polybench.ExtraLarge
)

// PolyBenchKernel is one of the thirty kernels of the paper's evaluation.
type PolyBenchKernel = polybench.Kernel

// PolyBenchKernels returns all PolyBench kernels.
func PolyBenchKernels() []PolyBenchKernel { return polybench.Kernels() }

// PolyBenchKernel returns the named kernel.
func PolyBenchByName(name string) (PolyBenchKernel, bool) { return polybench.ByName(name) }
