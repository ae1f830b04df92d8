// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section. Every benchmark exercises the code path that
// regenerates the corresponding result; `cmd/experiments` runs the same
// measurements at the full PolyBench problem sizes and prints the rows of
// the figure (see EXPERIMENTS.md for the mapping and the recorded results).
//
// The benchmarks use small problem instances so that the whole suite
// finishes in a few minutes; the analytical model's runtime is problem-size
// independent for the affine kernels, so the relative behaviour matches the
// full-size runs.
package haystack_test

import (
	"testing"

	"haystack"
	"haystack/internal/cachesim"
	"haystack/internal/core"
	"haystack/internal/explore"
	"haystack/internal/polybench"
	"haystack/internal/reusedist"
	"haystack/internal/scop"
	"haystack/internal/tiling"
)

func smallGemm(n int64) *scop.Program {
	p := scop.NewProgram("gemm-bench")
	a := p.NewArray("A", scop.ElemFloat64, n, n)
	b := p.NewArray("B", scop.ElemFloat64, n, n)
	c := p.NewArray("C", scop.ElemFloat64, n, n)
	i, j, kk := scop.V("i"), scop.V("j"), scop.V("k")
	p.Add(scop.For(i, scop.C(0), scop.C(n),
		scop.For(j, scop.C(0), scop.C(n),
			scop.For(kk, scop.C(0), scop.C(n),
				scop.Stmt("S0",
					scop.Read(a, scop.X(i), scop.X(kk)),
					scop.Read(b, scop.X(kk), scop.X(j)),
					scop.Read(c, scop.X(i), scop.X(j)),
					scop.Write(c, scop.X(i), scop.X(j)))))))
	return p
}

func smallStencil(n int64) *scop.Program {
	p := scop.NewProgram("stencil-bench")
	a := p.NewArray("A", scop.ElemFloat64, n, n)
	b := p.NewArray("B", scop.ElemFloat64, n, n)
	i, j := scop.V("i"), scop.V("j")
	p.Add(scop.For(i, scop.C(1), scop.C(n-1),
		scop.For(j, scop.C(1), scop.C(n-1),
			scop.Stmt("S0",
				scop.Read(a, scop.X(i), scop.X(j)),
				scop.Read(a, scop.X(i).Minus(scop.C(1)), scop.X(j)),
				scop.Read(a, scop.X(i).Plus(scop.C(1)), scop.X(j)),
				scop.Read(a, scop.X(i), scop.X(j).Minus(scop.C(1))),
				scop.Read(a, scop.X(i), scop.X(j).Plus(scop.C(1))),
				scop.Write(b, scop.X(i), scop.X(j))))))
	return p
}

func smallTrisolv(n int64) *scop.Program {
	p := scop.NewProgram("trisolv-bench")
	l := p.NewArray("L", scop.ElemFloat64, n, n)
	xv := p.NewArray("x", scop.ElemFloat64, n)
	b := p.NewArray("b", scop.ElemFloat64, n)
	i, j := scop.V("i"), scop.V("j")
	p.Add(scop.For(i, scop.C(0), scop.C(n),
		scop.Stmt("S0", scop.Read(b, scop.X(i)), scop.Write(xv, scop.X(i))),
		scop.For(j, scop.C(0), scop.X(i),
			scop.Stmt("S1", scop.Read(l, scop.X(i), scop.X(j)), scop.Read(xv, scop.X(j)),
				scop.Read(xv, scop.X(i)), scop.Write(xv, scop.X(i))))))
	return p
}

var benchConfig = haystack.Config{LineSize: 64, CacheSizes: []int64{8 * 1024, 64 * 1024}}

func analyzeOnce(b *testing.B, prog *scop.Program, cfg haystack.Config, opts haystack.Options) *haystack.Result {
	b.Helper()
	opts.Mode = haystack.ModeExact
	res, err := core.Analyze(prog, cfg, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig1_ModelGemm measures the analytical model on gemm; together
// with BenchmarkFig1_SimulationGemm it regenerates the scaling comparison of
// Figure 1 (the model time stays flat while the simulation time grows with
// the problem size — run the benchmark with different -gemm-n via
// cmd/experiments fig1 for the full sweep).
func BenchmarkFig1_ModelGemm(b *testing.B) {
	prog := smallGemm(10)
	for i := 0; i < b.N; i++ {
		analyzeOnce(b, prog, benchConfig, haystack.DefaultOptions())
	}
}

func BenchmarkFig1_SimulationGemm(b *testing.B) {
	prog := smallGemm(64)
	layout := scop.NewLayout(prog, scop.LayoutNatural, 64)
	cp, err := scop.Compile(prog, layout)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reusedist.ProfileProgram(cp, 64)
	}
}

// BenchmarkFig9_ModelAccuracy regenerates one accuracy data point of
// Figure 9: the model prediction plus the detailed ("measured") simulation.
func BenchmarkFig9_ModelAccuracy(b *testing.B) {
	prog := smallStencil(24)
	simCfg := haystack.SimConfig{LineSize: 64, Levels: []haystack.SimLevel{
		{Name: "L1", SizeBytes: 8 * 1024, Ways: 8, Policy: haystack.PLRU, NextLinePrefetch: true},
	}}
	for i := 0; i < b.N; i++ {
		analyzeOnce(b, prog, benchConfig, haystack.DefaultOptions())
		if _, err := core.DetailedSimulation(prog, simCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10_DineroSimulation regenerates a Figure 10 data point: the
// trace-driven simulation with full associativity and with 8-way
// associativity.
func BenchmarkFig10_DineroSimulation(b *testing.B) {
	prog := smallStencil(64)
	layout := scop.NewLayout(prog, scop.LayoutNatural, 64)
	cp, err := scop.Compile(prog, layout)
	if err != nil {
		b.Fatal(err)
	}
	fullCfg := haystack.SimConfig{LineSize: 64, Levels: []haystack.SimLevel{
		{Name: "L1", SizeBytes: 8 * 1024, Ways: 0, Policy: haystack.LRU}}}
	assocCfg := haystack.SimConfig{LineSize: 64, Levels: []haystack.SimLevel{
		{Name: "L1", SizeBytes: 8 * 1024, Ways: 8, Policy: haystack.LRU}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulateCompiled(cp, fullCfg); err != nil {
			b.Fatal(err)
		}
		if _, err := simulateCompiled(cp, assocCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func simulateCompiled(cp *scop.CompiledProgram, cfg haystack.SimConfig) (haystack.SimResult, error) {
	return cachesim.Simulate(cp, cfg)
}

// BenchmarkFig11_TimeSplit measures the two model phases (stack distances
// and capacity counting) whose split Figure 11 reports; the per-phase times
// are available in Result.Stats.
func BenchmarkFig11_TimeSplit(b *testing.B) {
	prog := smallTrisolv(16)
	for i := 0; i < b.N; i++ {
		res := analyzeOnce(b, prog, benchConfig, haystack.DefaultOptions())
		if res.Stats.StackDistanceTime <= 0 || res.Stats.CountedPieces == 0 {
			b.Fatal("phase statistics missing")
		}
	}
}

// BenchmarkFig12_ProblemSizes runs the model on two problem sizes of the
// same kernel; Figure 12 reports that the model time is largely problem-size
// independent.
func BenchmarkFig12_ProblemSizes(b *testing.B) {
	small := smallGemm(8)
	large := smallGemm(16)
	for i := 0; i < b.N; i++ {
		analyzeOnce(b, small, benchConfig, haystack.DefaultOptions())
		analyzeOnce(b, large, benchConfig, haystack.DefaultOptions())
	}
}

// BenchmarkFig13_CacheLevels models one, two, and three cache levels;
// Figure 13 reports the marginal cost of additional levels.
func BenchmarkFig13_CacheLevels(b *testing.B) {
	prog := smallStencil(24)
	cfgs := []haystack.Config{
		{LineSize: 64, CacheSizes: []int64{8 * 1024}},
		{LineSize: 64, CacheSizes: []int64{8 * 1024, 64 * 1024}},
		{LineSize: 64, CacheSizes: []int64{8 * 1024, 64 * 1024, 512 * 1024}},
	}
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			analyzeOnce(b, prog, cfg, haystack.DefaultOptions())
		}
	}
}

// BenchmarkFig14_* regenerate the ablation of Figure 14: the model with all
// optimizations, without the floor eliminations, and without partial
// enumeration.
func BenchmarkFig14_AllOptimizations(b *testing.B) {
	prog := smallTrisolv(14)
	for i := 0; i < b.N; i++ {
		analyzeOnce(b, prog, benchConfig, haystack.Options{Equalization: true, Rasterization: true, PartialEnumeration: true})
	}
}

func BenchmarkFig14_NoFloorElimination(b *testing.B) {
	prog := smallTrisolv(14)
	for i := 0; i < b.N; i++ {
		analyzeOnce(b, prog, benchConfig, haystack.Options{PartialEnumeration: true})
	}
}

func BenchmarkFig14_FullEnumeration(b *testing.B) {
	prog := smallTrisolv(14)
	for i := 0; i < b.N; i++ {
		analyzeOnce(b, prog, benchConfig, haystack.Options{Equalization: true, Rasterization: true})
	}
}

// BenchmarkFig15_ModelVsSimulation pairs the model with the trace-driven
// simulator on the same kernel, the comparison of Figure 15b (and, scaled by
// the number of cache sets, the estimate of Figure 15a).
func BenchmarkFig15_ModelVsSimulation(b *testing.B) {
	prog := smallStencil(24)
	layout := scop.NewLayout(prog, scop.LayoutNatural, 64)
	cp, err := scop.Compile(prog, layout)
	if err != nil {
		b.Fatal(err)
	}
	simCfg := haystack.SimConfig{LineSize: 64, Levels: []haystack.SimLevel{
		{Name: "L1", SizeBytes: 8 * 1024, Ways: 8, Policy: haystack.PLRU}}}
	for i := 0; i < b.N; i++ {
		analyzeOnce(b, prog, benchConfig, haystack.DefaultOptions())
		if _, err := simulateCompiled(cp, simCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16_TiledKernel analyzes a rectangularly tiled kernel (tile
// size 16), the configuration of Figure 16. Tiling doubles the loop depth
// and, for some kernels, produces previous-access relations outside the
// exactly-supported quasi-affine fragment of this implementation; the
// model's hybrid fallback (exact trace profiling) is therefore left enabled
// here, exactly as a user would run it, and the benchmark measures the
// end-to-end cost including that fallback (see EXPERIMENTS.md).
func BenchmarkFig16_TiledKernel(b *testing.B) {
	prog := smallStencil(24)
	tiled, ok := tiling.Tile(prog, 16)
	if !ok {
		b.Fatal("stencil should have a rectangular tiling")
	}
	opts := haystack.DefaultOptions()
	for i := 0; i < b.N; i++ {
		res, err := core.Analyze(tiled, haystack.Config{LineSize: 64, CacheSizes: []int64{8 * 1024}}, opts)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkTable1_NonAffineClassification exercises the classification of
// non-affine stack distance polynomials reported in Table 1.
func BenchmarkTable1_NonAffineClassification(b *testing.B) {
	prog := smallTrisolv(16)
	for i := 0; i < b.N; i++ {
		res := analyzeOnce(b, prog, benchConfig, haystack.DefaultOptions())
		_ = res.Stats.NonAffineByAffineDims
	}
}

// BenchmarkSweep_* measure the design-space exploration win of the
// two-phase API on a grid of one kernel × four cache hierarchies: the
// shared-distance sweep (internal/explore) computes the stack distance
// model once and only pays the counting phase per hierarchy, while the
// naive sweep repeats the full Analyze — and therefore the distance phase —
// for every grid point. The shared sweep must win by roughly the ratio of
// distance-phase to counting-phase cost.
var sweepHierarchies = []haystack.Config{
	{LineSize: 64, CacheSizes: []int64{1 * 1024}},
	{LineSize: 64, CacheSizes: []int64{8 * 1024}},
	{LineSize: 64, CacheSizes: []int64{64 * 1024}},
	{LineSize: 64, CacheSizes: []int64{8 * 1024, 64 * 1024, 512 * 1024}},
}

func sweepAnalysisOptions() haystack.Options {
	opts := haystack.DefaultOptions()
	opts.Parallelism = 1
	opts.Mode = haystack.ModeExact
	return opts
}

func BenchmarkSweep_SharedDistances(b *testing.B) {
	grid := explore.Grid{
		Kernels:     []explore.Kernel{{Name: "gemm", Program: smallGemm(8)}},
		Hierarchies: sweepHierarchies,
	}
	opts := explore.Options{Analysis: sweepAnalysisOptions(), Parallelism: 1}
	for i := 0; i < b.N; i++ {
		res, err := explore.Sweep(grid, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.DistanceComputations != 1 || res.Stats.Evaluations != len(sweepHierarchies) {
			b.Fatalf("unexpected sweep shape: %+v", res.Stats)
		}
	}
}

func BenchmarkSweep_NaiveAnalyze(b *testing.B) {
	prog := smallGemm(8)
	opts := sweepAnalysisOptions()
	for i := 0; i < b.N; i++ {
		for _, cfg := range sweepHierarchies {
			analyzeOnce(b, prog, cfg, opts)
		}
	}
}

// BenchmarkTiledSymbolic_Gemm2D runs the full symbolic distance phase on the
// PolyBench gemm kernel at SMALL size, rectangularly tiled with tile size 16
// (the i/j band tiles; the k loop stays a point loop because the nest is
// imperfect). This is the workload the coalescing layer of
// internal/presburger exists for: without coalescing the basic-map unions
// grow combinatorially through the E/N/B/F compositions and the distance
// phase does not terminate in reasonable time (>35 minutes on the reference
// box, versus seconds with coalescing). The benchmark reports the peak
// basic-map count at the composition frontiers and the total coalescing
// hits alongside ns/op, so both the outcome and the mechanism are tracked.
func BenchmarkTiledSymbolic_Gemm2D(b *testing.B) {
	if testing.Short() {
		b.Skip("tiled symbolic distance phase takes tens of seconds per op")
	}
	k, ok := polybench.ByName("gemm")
	if !ok {
		b.Fatal("gemm kernel missing")
	}
	tiled, didTile := tiling.Tile(k.Build(polybench.Small), 16)
	if !didTile {
		b.Fatal("gemm should have a rectangular tiling")
	}
	opts := haystack.DefaultOptions()
	opts.Mode = haystack.ModeExact
	opts.Parallelism = 1
	var last *core.DistanceModel
	for i := 0; i < b.N; i++ {
		dm, err := core.ComputeDistances(tiled, 64, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = dm
	}
	b.StopTimer()
	res, err := last.CountMisses(haystack.Config{LineSize: 64, CacheSizes: []int64{32 * 1024}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Stats.PeakBasicMaps), "peak-basic-maps")
	b.ReportMetric(float64(res.Stats.CoalesceDedup+res.Stats.CoalesceSubsumed+res.Stats.CoalesceAdjacent+res.Stats.CoalesceRedundantCons), "coalesce-hits")
}

// BenchmarkUntiledSymbolic_Gemm is the untiled baseline of
// BenchmarkTiledSymbolic_Gemm2D: the same kernel and size without tiling.
// The tiled/untiled ns/op ratio is the cost of the deeper nest, which
// coalescing keeps within a small constant factor instead of letting it
// diverge.
func BenchmarkUntiledSymbolic_Gemm(b *testing.B) {
	k, ok := polybench.ByName("gemm")
	if !ok {
		b.Fatal("gemm kernel missing")
	}
	prog := k.Build(polybench.Small)
	opts := haystack.DefaultOptions()
	opts.Mode = haystack.ModeExact
	opts.Parallelism = 1
	var last *core.DistanceModel
	for i := 0; i < b.N; i++ {
		dm, err := core.ComputeDistances(prog, 64, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = dm
	}
	b.StopTimer()
	res, err := last.CountMisses(haystack.Config{LineSize: 64, CacheSizes: []int64{32 * 1024}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Stats.PeakBasicMaps), "peak-basic-maps")
}

// Substrate micro-benchmarks: the trace generator and the simulator, whose
// throughput bounds every trace-driven comparison.
func BenchmarkSubstrate_TraceGeneration(b *testing.B) {
	prog := smallGemm(64)
	layout := scop.NewLayout(prog, scop.LayoutNatural, 64)
	cp, err := scop.Compile(prog, layout)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		total += cp.CountAccesses()
	}
	_ = total
}

func BenchmarkSubstrate_ReuseDistanceProfiler(b *testing.B) {
	prog := smallGemm(48)
	layout := scop.NewLayout(prog, scop.LayoutNatural, 64)
	cp, err := scop.Compile(prog, layout)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reusedist.ProfileProgram(cp, 64)
	}
}
