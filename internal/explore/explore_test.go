package explore

import (
	"fmt"
	"reflect"
	"testing"

	"haystack/internal/core"
	"haystack/internal/polybench"
	"haystack/internal/scop"
	"haystack/internal/tiling"
)

func gemmKernel(n int64) *scop.Program {
	p := scop.NewProgram("gemm")
	a := p.NewArray("A", scop.ElemFloat64, n, n)
	b := p.NewArray("B", scop.ElemFloat64, n, n)
	c := p.NewArray("C", scop.ElemFloat64, n, n)
	i, j, k := scop.V("i"), scop.V("j"), scop.V("k")
	p.Add(scop.For(i, scop.C(0), scop.C(n),
		scop.For(j, scop.C(0), scop.C(n),
			scop.For(k, scop.C(0), scop.C(n),
				scop.Stmt("S0",
					scop.Read(a, scop.X(i), scop.X(k)),
					scop.Read(b, scop.X(k), scop.X(j)),
					scop.Read(c, scop.X(i), scop.X(j)),
					scop.Write(c, scop.X(i), scop.X(j)))))))
	return p
}

func transposeKernel(n int64) *scop.Program {
	p := scop.NewProgram("transpose")
	a := p.NewArray("A", scop.ElemFloat64, n, n)
	b := p.NewArray("B", scop.ElemFloat64, n, n)
	i, j := scop.V("i"), scop.V("j")
	p.Add(scop.For(i, scop.C(0), scop.C(n),
		scop.For(j, scop.C(0), scop.C(n),
			scop.Stmt("S0", scop.Read(a, scop.X(j), scop.X(i)), scop.Write(b, scop.X(i), scop.X(j))))))
	return p
}

// sweepTwiceKernel reads an array forward in one loop and backward in a
// second: two single loops, which the rectangular tiler leaves untouched.
func sweepTwiceKernel(n int64) *scop.Program {
	p := scop.NewProgram("sweep2x")
	a := p.NewArray("A", scop.ElemFloat64, n)
	b := p.NewArray("B", scop.ElemFloat64, n)
	i, j := scop.V("i"), scop.V("j")
	p.Add(
		scop.For(i, scop.C(0), scop.C(n),
			scop.Stmt("S0", scop.Read(a, scop.X(i)), scop.Write(b, scop.X(i)))),
		scop.For(j, scop.C(0), scop.C(n),
			scop.Stmt("S1", scop.Read(b, scop.C(n-1).Minus(scop.X(j))))))
	return p
}

func triangularKernel(n int64) *scop.Program {
	p := scop.NewProgram("triangular")
	l := p.NewArray("L", scop.ElemFloat64, n, n)
	x := p.NewArray("x", scop.ElemFloat64, n)
	i, j := scop.V("i"), scop.V("j")
	p.Add(scop.For(i, scop.C(0), scop.C(n),
		scop.For(j, scop.C(0), scop.X(i).Plus(scop.C(1)),
			scop.Stmt("S0", scop.Read(l, scop.X(i), scop.X(j)), scop.Read(x, scop.X(j))))))
	return p
}

func testHierarchies() []core.Config {
	return []core.Config{
		{LineSize: 64, CacheSizes: []int64{1024}},
		{LineSize: 64, CacheSizes: []int64{2048, 8192}},
		{LineSize: 64, CacheSizes: []int64{512, 4096, 16384}},
	}
}

// sameResult compares everything deterministic about two results: the miss
// counts, the per-statement attributions, and the additive statistics
// (timing and worker bookkeeping are scheduling dependent and excluded).
func sameResult(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if got.TotalAccesses != want.TotalAccesses ||
		got.CompulsoryMisses != want.CompulsoryMisses ||
		got.UsedTraceFallback != want.UsedTraceFallback {
		t.Fatalf("%s: header mismatch: got %+v want %+v", label, got, want)
	}
	if !reflect.DeepEqual(got.PerStatementCompulsory, want.PerStatementCompulsory) {
		t.Fatalf("%s: compulsory attribution mismatch: %v vs %v",
			label, got.PerStatementCompulsory, want.PerStatementCompulsory)
	}
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("%s: level count mismatch: %d vs %d", label, len(got.Levels), len(want.Levels))
	}
	for i := range got.Levels {
		g, w := got.Levels[i], want.Levels[i]
		if g.CacheBytes != w.CacheBytes || g.CapacityMisses != w.CapacityMisses || g.TotalMisses != w.TotalMisses {
			t.Fatalf("%s: level %d mismatch: %+v vs %+v", label, i, g, w)
		}
		if !reflect.DeepEqual(g.PerStatementCapacity, w.PerStatementCapacity) {
			t.Fatalf("%s: level %d attribution mismatch: %v vs %v",
				label, i, g.PerStatementCapacity, w.PerStatementCapacity)
		}
	}
	gs, ws := got.Stats, want.Stats
	if gs.DistancePieces != ws.DistancePieces || gs.CountedPieces != ws.CountedPieces ||
		gs.AffinePieces != ws.AffinePieces || gs.NonAffinePieces != ws.NonAffinePieces ||
		gs.EqualizationSplits != ws.EqualizationSplits || gs.RasterizationSplits != ws.RasterizationSplits ||
		gs.PartialEnumerationPoints != ws.PartialEnumerationPoints || gs.FullEnumerationPoints != ws.FullEnumerationPoints ||
		!reflect.DeepEqual(gs.NonAffineByAffineDims, ws.NonAffineByAffineDims) {
		t.Fatalf("%s: stats mismatch:\ngot  %+v\nwant %+v", label, gs, ws)
	}
}

// TestSweepMatchesAnalyzeAtEveryParallelism asserts the headline determinism
// property: every grid point of a sweep is bit-identical to a standalone
// per-configuration core.Analyze call, at every parallelism level of the
// outer pool. (The kernels are chosen so the requested tile sizes collapse
// onto the untiled variant: the variant-dedup path is exercised without the
// cost of symbolically analyzing deep tiled nests; tiled variants are
// covered by TestSweepTiledProfile.)
func TestSweepMatchesAnalyzeAtEveryParallelism(t *testing.T) {
	grid := Grid{
		Kernels: []Kernel{
			{Name: "sweep2x", Program: sweepTwiceKernel(64)},
			{Name: "triangular", Program: triangularKernel(10)},
		},
		TileSizes:   []int64{1, 4},
		Hierarchies: testHierarchies(),
	}
	opts := DefaultOptions()

	// Reference: naive per-configuration Analyze calls.
	type key struct {
		kernel string
		tile   int64
		hier   int
	}
	want := map[key]*core.Result{}
	for _, k := range grid.Kernels {
		for _, tile := range grid.TileSizes {
			prog := k.Program
			if tile > 1 {
				if tiled, ok := tiling.Tile(k.Program, tile); ok {
					prog = tiled
				}
			}
			for hi, h := range grid.Hierarchies {
				res, err := core.Analyze(prog, h, opts.Analysis)
				if err != nil {
					t.Fatalf("Analyze(%s, tile %d, hier %d): %v", k.Name, tile, hi, err)
				}
				want[key{k.Name, tile, hi}] = res
			}
		}
	}

	for _, workers := range []int{1, 2, 7} {
		opts := opts
		opts.Parallelism = workers
		res, err := Sweep(grid, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		wantEvals := len(grid.Kernels) * len(grid.TileSizes) * len(grid.Hierarchies)
		if len(res.Evaluations) != wantEvals {
			t.Fatalf("workers=%d: %d evaluations, want %d", workers, len(res.Evaluations), wantEvals)
		}
		hi := 0
		for _, e := range res.Evaluations {
			ref := want[key{e.Kernel, e.TileSize, hi}]
			sameResult(t, e.Kernel, e.Result, ref)
			hi = (hi + 1) % len(grid.Hierarchies)
		}
	}
}

// workerCountKernels are the PolyBench kernels
// TestSweepPolyBenchWorkerCountBitIdentical sweeps: ten that analyze at
// MINI in well under a second each, covering one to four statements,
// triangular domains and the trace fallback (adi). The sweep of all thirty
// kernels takes about 70 s per worker count on one core, too long for the
// test suite; the CI scaling step compares its grids at 1 and 4 workers.
var workerCountKernels = []string{
	"adi", "atax", "bicg", "durbin", "gemm", "gesummv", "jacobi-1d", "mvt", "trisolv", "trmm",
}

// TestSweepPolyBenchWorkerCountBitIdentical runs PolyBench kernels at MINI
// (workerCountKernels) through one sweep with 1, 2 and 4 outer workers
// (inner analysis parallelism fixed at one, so the outer pool is the only
// variable) and asserts that every grid point is bit-identical to the
// 1-worker run: miss counts, attributions, tier and the deterministic
// statistics. CI also gates the wall time of the full sweep (4 workers at
// most 0.4x 1 worker) on runners with four or more CPUs.
func TestSweepPolyBenchWorkerCountBitIdentical(t *testing.T) {
	grid := Grid{
		Hierarchies: []core.Config{{LineSize: 64, CacheSizes: []int64{32 * 1024, 1024 * 1024}}},
	}
	for _, name := range workerCountKernels {
		k, ok := polybench.ByName(name)
		if !ok {
			t.Fatalf("PolyBench kernel %q is not registered", name)
		}
		grid.Kernels = append(grid.Kernels, Kernel{Name: name, Program: k.Build(polybench.Mini)})
	}
	opts := DefaultOptions()
	var base *Result
	for _, workers := range []int{1, 2, 4} {
		opts.Parallelism = workers
		res, err := Sweep(grid, opts)
		if err != nil {
			t.Fatalf("sweep with %d workers: %v", workers, err)
		}
		if len(res.Evaluations) != len(grid.Kernels) {
			t.Fatalf("%d workers: %d evaluations, want %d", workers, len(res.Evaluations), len(grid.Kernels))
		}
		if base == nil {
			base = res
			continue
		}
		for i, e := range res.Evaluations {
			want := base.Evaluations[i]
			if e.Kernel != want.Kernel || e.Result.Tier != want.Result.Tier {
				t.Fatalf("%d workers: evaluation %d is %s (tier %v), 1-worker run has %s (tier %v)",
					workers, i, e.Kernel, e.Result.Tier, want.Kernel, want.Result.Tier)
			}
			sameResult(t, fmt.Sprintf("%s at %d workers", e.Kernel, workers), e.Result, want.Result)
		}
	}
}

// TestSweepSharesModelAcrossHierarchies: a multi-hierarchy sweep of one 3-D
// kernel computes its distance model exactly once and still matches the
// per-configuration Analyze calls.
func TestSweepSharesModelAcrossHierarchies(t *testing.T) {
	grid := Grid{
		Kernels:     []Kernel{{Name: "gemm", Program: gemmKernel(8)}},
		Hierarchies: testHierarchies(),
	}
	opts := DefaultOptions()
	res, err := Sweep(grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DistanceComputations != 1 {
		t.Fatalf("expected 1 distance computation for 3 hierarchies, got %d", res.Stats.DistanceComputations)
	}
	for hi, h := range grid.Hierarchies {
		want, err := core.Analyze(grid.Kernels[0].Program, h, opts.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "gemm", res.Evaluations[hi].Result, want)
	}
}

// TestSweepComputesDistancesOncePerVariant asserts the amortization claim
// on a grid with real tiled variants (built via the profile strategy so the
// test stays cheap): one model per variant, independent of the number of
// hierarchies.
func TestSweepComputesDistancesOncePerVariant(t *testing.T) {
	grid := Grid{
		Kernels:     []Kernel{{Name: "gemm", Program: gemmKernel(8)}},
		TileSizes:   []int64{1, 2, 4},
		Hierarchies: testHierarchies(),
	}
	opts := DefaultOptions()
	opts.Tiled = TiledProfile
	res, err := Sweep(grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Variants != 3 {
		t.Fatalf("expected 3 variants (untiled + 2 tiled), got %d", res.Stats.Variants)
	}
	if res.Stats.DistanceComputations != 3 {
		t.Fatalf("expected 3 distance computations (one per variant), got %d", res.Stats.DistanceComputations)
	}
	if res.Stats.Evaluations != 9 {
		t.Fatalf("expected 9 evaluations, got %d", res.Stats.Evaluations)
	}
}

// TestSweepCollapsesUntileableVariants: tile sizes that the rectangular
// tiler cannot apply must share the untiled variant's distance model rather
// than recomputing it.
func TestSweepCollapsesUntileableVariants(t *testing.T) {
	grid := Grid{
		Kernels:   []Kernel{{Name: "triangular", Program: triangularKernel(10)}},
		TileSizes: []int64{1, 4, 8},
		Hierarchies: []core.Config{
			{LineSize: 64, CacheSizes: []int64{512}},
			{LineSize: 64, CacheSizes: []int64{2048}},
		},
	}
	res, err := Sweep(grid, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Variants != 1 || res.Stats.DistanceComputations != 1 {
		t.Fatalf("triangular kernel must collapse to one variant/model, got %d/%d",
			res.Stats.Variants, res.Stats.DistanceComputations)
	}
	if res.Stats.Evaluations != 6 {
		t.Fatalf("expected 6 evaluations, got %d", res.Stats.Evaluations)
	}
	if res.Stats.CountingPasses != 2 {
		t.Fatalf("collapsed grid points must share counting passes: got %d, want 2",
			res.Stats.CountingPasses)
	}
	for _, e := range res.Evaluations {
		if e.Tiled {
			t.Fatalf("no evaluation of the triangular kernel may be marked tiled: %+v", e)
		}
	}
	// Collapsed grid points share the identical Result, not just equal
	// numbers: three tile sizes against two hierarchies yield two results.
	distinct := map[*core.Result]bool{}
	for _, e := range res.Evaluations {
		distinct[e.Result] = true
	}
	if len(distinct) != 2 {
		t.Fatalf("expected 2 distinct shared results, got %d", len(distinct))
	}
}

// TestSweepMixedLineSizes: hierarchies with different line sizes need
// separate distance models, one per (variant, line size) pair.
func TestSweepMixedLineSizes(t *testing.T) {
	grid := Grid{
		Kernels: []Kernel{{Name: "sweep2x", Program: sweepTwiceKernel(64)}},
		Hierarchies: []core.Config{
			{LineSize: 64, CacheSizes: []int64{1024}},
			{LineSize: 32, CacheSizes: []int64{1024}},
		},
	}
	res, err := Sweep(grid, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Variants != 1 {
		t.Fatalf("expected 1 variant, got %d", res.Stats.Variants)
	}
	if res.Stats.DistanceComputations != 2 {
		t.Fatalf("expected 2 distance computations (1 variant x 2 line sizes), got %d",
			res.Stats.DistanceComputations)
	}
}

// TestSweepTiledProfile covers tiled variants end to end with the profile
// strategy: the tiled grid points must be bit-identical to naive
// per-configuration profile models at every parallelism level, must agree
// with the exact trace reference (core.SimulateReference), and on the
// transposed-access kernel the tiled variant must win the L1 objective —
// the sweep's purpose demonstrated end to end.
func TestSweepTiledProfile(t *testing.T) {
	grid := Grid{
		Kernels:   []Kernel{{Name: "transpose", Program: transposeKernel(64)}},
		TileSizes: []int64{1, 8},
		Hierarchies: []core.Config{
			{LineSize: 64, CacheSizes: []int64{4 * 1024}},
			{LineSize: 64, CacheSizes: []int64{16 * 1024}},
		},
	}
	opts := DefaultOptions()
	opts.Tiled = TiledProfile

	tiledProg, ok := tiling.Tile(grid.Kernels[0].Program, 8)
	if !ok {
		t.Fatal("transpose must be tileable")
	}

	var first *Result
	for _, workers := range []int{1, 3} {
		opts := opts
		opts.Parallelism = workers
		res, err := Sweep(grid, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Stats.DistanceComputations != 2 {
			t.Fatalf("workers=%d: expected 2 distance computations, got %d",
				workers, res.Stats.DistanceComputations)
		}
		for _, e := range res.Evaluations {
			prog := grid.Kernels[0].Program
			if e.TileSize == 8 {
				if !e.Tiled || !e.Result.UsedTraceFallback {
					t.Fatalf("tiled evaluation must be marked tiled and profile-backed: %+v", e)
				}
				prog = tiledProg
				// Bit-identical to a naive per-configuration profile model.
				dm, err := core.ComputeDistances(prog, e.Hierarchy.LineSize, core.Options{Mode: core.ModeSim})
				if err != nil {
					t.Fatal(err)
				}
				want, err := dm.CountMisses(e.Hierarchy)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "tiled-profile", e.Result, want)
			}
			// Exact against the trace ground truth, tiled and untiled alike.
			ref, err := core.SimulateReference(prog, e.Hierarchy)
			if err != nil {
				t.Fatal(err)
			}
			for li, lvl := range e.Result.Levels {
				if lvl.TotalMisses != ref.TotalMisses[li] {
					t.Fatalf("tile %d, caches %v, level %d: model %d != reference %d",
						e.TileSize, e.Hierarchy.CacheSizes, li, lvl.TotalMisses, ref.TotalMisses[li])
				}
			}
		}
		if first == nil {
			first = res
		}
	}

	best := res4k(first, t)
	if best.Evaluation.TileSize != 8 || !best.Evaluation.Tiled {
		t.Fatalf("tiling should win the transposed access in a 4 KiB cache: %+v", best)
	}
}

// res4k restricts the result to the 4 KiB hierarchy and ranks it.
func res4k(r *Result, t *testing.T) Best {
	t.Helper()
	restricted := &Result{}
	for _, e := range r.Evaluations {
		if e.Hierarchy.CacheSizes[0] == 4*1024 {
			restricted.Evaluations = append(restricted.Evaluations, e)
		}
	}
	best := restricted.BestPerKernel(MinL1Misses)
	if len(best) != 1 {
		t.Fatalf("expected one best entry, got %d", len(best))
	}
	return best[0]
}

func TestBestPerKernelTieBreaksEarlier(t *testing.T) {
	mk := func(misses int64) *core.Result {
		return &core.Result{Levels: []core.LevelResult{{TotalMisses: misses}}}
	}
	r := &Result{Evaluations: []Evaluation{
		{Kernel: "k", TileSize: 1, Result: mk(10)},
		{Kernel: "k", TileSize: 4, Result: mk(10)},
		{Kernel: "k", TileSize: 8, Result: mk(12)},
	}}
	best := r.BestPerKernel(MinL1Misses)
	if len(best) != 1 || best[0].Evaluation.TileSize != 1 || best[0].Score != 10 {
		t.Fatalf("tie must break towards the earlier grid point: %+v", best)
	}
}

func TestObjectives(t *testing.T) {
	res := &core.Result{Levels: []core.LevelResult{
		{TotalMisses: 100}, {TotalMisses: 30}, {TotalMisses: 7},
	}}
	e := Evaluation{Result: res}
	if MinL1Misses.Score(e) != 100 || MinLastLevelMisses.Score(e) != 7 || MinTotalMisses.Score(e) != 137 {
		t.Fatalf("objective scores wrong: %d %d %d",
			MinL1Misses.Score(e), MinLastLevelMisses.Score(e), MinTotalMisses.Score(e))
	}
	for _, o := range []Objective{MinL1Misses, MinLastLevelMisses, MinTotalMisses} {
		parsed, err := ParseObjective(o.String())
		if err != nil || parsed != o {
			t.Fatalf("objective %v does not round-trip: %v %v", o, parsed, err)
		}
	}
	if _, err := ParseObjective("bogus"); err == nil {
		t.Fatal("bogus objective must not parse")
	}
}

func TestSweepValidation(t *testing.T) {
	good := Grid{
		Kernels:     []Kernel{{Name: "sweep2x", Program: sweepTwiceKernel(16)}},
		TileSizes:   []int64{1},
		Hierarchies: testHierarchies(),
	}
	cases := []struct {
		name string
		mut  func(g *Grid)
	}{
		{"no kernels", func(g *Grid) { g.Kernels = nil }},
		{"no hierarchies", func(g *Grid) { g.Hierarchies = nil }},
		{"bad line size", func(g *Grid) { g.Hierarchies[0].LineSize = 0 }},
		{"no cache sizes", func(g *Grid) { g.Hierarchies[1].CacheSizes = nil }},
		{"nil program", func(g *Grid) { g.Kernels[0].Program = nil }},
	}
	for _, tc := range cases {
		g := good
		g.Kernels = append([]Kernel(nil), good.Kernels...)
		g.Hierarchies = append([]core.Config(nil), good.Hierarchies...)
		for i := range g.Hierarchies {
			g.Hierarchies[i].CacheSizes = append([]int64(nil), good.Hierarchies[i].CacheSizes...)
		}
		tc.mut(&g)
		if _, err := Sweep(g, DefaultOptions()); err == nil {
			t.Fatalf("%s: sweep must fail", tc.name)
		}
	}
}
