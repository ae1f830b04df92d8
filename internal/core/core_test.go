package core

import (
	"testing"

	"haystack/internal/scop"
)

// Test kernels -----------------------------------------------------------

// paperExample is the program of Figure 2.
func paperExample() *scop.Program {
	p := scop.NewProgram("example")
	m := p.NewArray("M", scop.ElemFloat64, 4)
	i, j := scop.V("i"), scop.V("j")
	p.Add(
		scop.For(i, scop.C(0), scop.C(4), scop.Stmt("S0", scop.Write(m, scop.X(i)))),
		scop.For(j, scop.C(0), scop.C(4), scop.Stmt("S1", scop.Read(m, scop.C(3).Minus(scop.X(j))))),
	)
	return p
}

func gemm(n int64) *scop.Program {
	p := scop.NewProgram("gemm")
	a := p.NewArray("A", scop.ElemFloat64, n, n)
	b := p.NewArray("B", scop.ElemFloat64, n, n)
	c := p.NewArray("C", scop.ElemFloat64, n, n)
	i, j, k := scop.V("i"), scop.V("j"), scop.V("k")
	p.Add(
		scop.For(i, scop.C(0), scop.C(n),
			scop.For(j, scop.C(0), scop.C(n),
				scop.Stmt("S0", scop.Read(c, scop.X(i), scop.X(j)), scop.Write(c, scop.X(i), scop.X(j))),
				scop.For(k, scop.C(0), scop.C(n),
					scop.Stmt("S1",
						scop.Read(a, scop.X(i), scop.X(k)),
						scop.Read(b, scop.X(k), scop.X(j)),
						scop.Read(c, scop.X(i), scop.X(j)),
						scop.Write(c, scop.X(i), scop.X(j)))))))
	return p
}

func jacobi1d(n, tsteps int64) *scop.Program {
	p := scop.NewProgram("jacobi-1d")
	a := p.NewArray("A", scop.ElemFloat64, n)
	b := p.NewArray("B", scop.ElemFloat64, n)
	t, i, j := scop.V("t"), scop.V("i"), scop.V("j")
	p.Add(
		scop.For(t, scop.C(0), scop.C(tsteps),
			scop.For(i, scop.C(1), scop.C(n-1),
				scop.Stmt("S0",
					scop.Read(a, scop.X(i).Minus(scop.C(1))),
					scop.Read(a, scop.X(i)),
					scop.Read(a, scop.X(i).Plus(scop.C(1))),
					scop.Write(b, scop.X(i)))),
			scop.For(j, scop.C(1), scop.C(n-1),
				scop.Stmt("S1",
					scop.Read(b, scop.X(j).Minus(scop.C(1))),
					scop.Read(b, scop.X(j)),
					scop.Read(b, scop.X(j).Plus(scop.C(1))),
					scop.Write(a, scop.X(j))))))
	return p
}

func trisolvLike(n int64) *scop.Program {
	// Triangular loop nest: x[i] -= L[i][j]*x[j] for j<i, then x[i] /= L[i][i].
	p := scop.NewProgram("trisolv")
	l := p.NewArray("L", scop.ElemFloat64, n, n)
	x := p.NewArray("x", scop.ElemFloat64, n)
	b := p.NewArray("b", scop.ElemFloat64, n)
	i, j := scop.V("i"), scop.V("j")
	p.Add(
		scop.For(i, scop.C(0), scop.C(n),
			scop.Stmt("S0", scop.Read(b, scop.X(i)), scop.Write(x, scop.X(i))),
			scop.For(j, scop.C(0), scop.X(i),
				scop.Stmt("S1",
					scop.Read(l, scop.X(i), scop.X(j)),
					scop.Read(x, scop.X(j)),
					scop.Read(x, scop.X(i)),
					scop.Write(x, scop.X(i)))),
			scop.Stmt("S2",
				scop.Read(l, scop.X(i), scop.X(i)),
				scop.Read(x, scop.X(i)),
				scop.Write(x, scop.X(i)))))
	return p
}

func stencil2d(n int64) *scop.Program {
	p := scop.NewProgram("stencil2d")
	a := p.NewArray("A", scop.ElemFloat64, n, n)
	b := p.NewArray("B", scop.ElemFloat64, n, n)
	i, j := scop.V("i"), scop.V("j")
	p.Add(
		scop.For(i, scop.C(1), scop.C(n-1),
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

// Helpers ------------------------------------------------------------------

// checkAgainstReference analyzes the program and compares every cache level
// against the exact trace-based reference.
func checkAgainstReference(t *testing.T, prog *scop.Program, cfg Config) *Result {
	t.Helper()
	opts := DefaultOptions()
	opts.Mode = ModeExact
	res, err := Analyze(prog, cfg, opts)
	if err != nil {
		t.Fatalf("%s: Analyze failed: %v", prog.Name, err)
	}
	ref, err := SimulateReference(prog, cfg)
	if err != nil {
		t.Fatalf("%s: reference simulation failed: %v", prog.Name, err)
	}
	if res.TotalAccesses != ref.TotalAccesses {
		t.Errorf("%s: total accesses: model %d, reference %d", prog.Name, res.TotalAccesses, ref.TotalAccesses)
	}
	if res.CompulsoryMisses != ref.CompulsoryMisses {
		t.Errorf("%s: compulsory misses: model %d, reference %d", prog.Name, res.CompulsoryMisses, ref.CompulsoryMisses)
	}
	for i, lvl := range res.Levels {
		if lvl.TotalMisses != ref.TotalMisses[i] {
			t.Errorf("%s: cache %d bytes: model %d misses, reference %d",
				prog.Name, lvl.CacheBytes, lvl.TotalMisses, ref.TotalMisses[i])
		}
	}
	return res
}

// Tests ----------------------------------------------------------------------

func TestPaperExampleElementSizedLines(t *testing.T) {
	// Line size = element size: the example of the paper. With a capacity of
	// 2 lines the paper derives 2 capacity misses and 4 compulsory misses.
	cfg := Config{LineSize: 8, CacheSizes: []int64{2 * 8, 4 * 8}}
	res := checkAgainstReference(t, paperExample(), cfg)
	if res.CompulsoryMisses != 4 {
		t.Fatalf("compulsory = %d, want 4", res.CompulsoryMisses)
	}
	if res.Levels[0].CapacityMisses != 2 {
		t.Fatalf("capacity misses at 2 lines = %d, want 2", res.Levels[0].CapacityMisses)
	}
	if res.Levels[1].CapacityMisses != 0 {
		t.Fatalf("capacity misses at 4 lines = %d, want 0", res.Levels[1].CapacityMisses)
	}
	if res.UsedTraceFallback {
		t.Fatal("fallback must not trigger on the paper example")
	}
}

func TestPaperExampleWithCacheLines(t *testing.T) {
	// 16-byte lines group pairs of elements.
	cfg := Config{LineSize: 16, CacheSizes: []int64{16, 32}}
	checkAgainstReference(t, paperExample(), cfg)
}

func TestGEMMSmall(t *testing.T) {
	n := int64(12)
	if testing.Short() {
		n = 8
	}
	cfg := Config{LineSize: 64, CacheSizes: []int64{512, 2048, 16 * 1024}}
	res := checkAgainstReference(t, gemm(n), cfg)
	if res.UsedTraceFallback {
		t.Fatal("gemm must be handled symbolically")
	}
	if res.Stats.DistancePieces == 0 {
		t.Fatal("expected distance pieces")
	}
}

func TestGEMMProblemSizeIndependentCounts(t *testing.T) {
	// The same analysis at a larger size must still be exact; this exercises
	// the symbolic counting rather than any enumeration path.
	if testing.Short() {
		t.Skip("the large problem size is the point of this test; skipping in short mode")
	}
	cfg := Config{LineSize: 64, CacheSizes: []int64{1024}}
	checkAgainstReference(t, gemm(20), cfg)
}

func TestJacobi1D(t *testing.T) {
	n, tsteps := int64(40), int64(3)
	if testing.Short() {
		n, tsteps = 16, 2
	}
	cfg := Config{LineSize: 64, CacheSizes: []int64{256, 1024}}
	checkAgainstReference(t, jacobi1d(n, tsteps), cfg)
}

func TestTrisolvTriangular(t *testing.T) {
	cfg := Config{LineSize: 64, CacheSizes: []int64{512, 4096}}
	checkAgainstReference(t, trisolvLike(16), cfg)
}

func TestStencil2D(t *testing.T) {
	cfg := Config{LineSize: 64, CacheSizes: []int64{512, 8192}}
	checkAgainstReference(t, stencil2d(12), cfg)
}

func TestMultiLevelReusesDistances(t *testing.T) {
	// Modeling more levels must not change the per-level results.
	n := int64(10)
	if testing.Short() {
		n = 7
	}
	one := Config{LineSize: 64, CacheSizes: []int64{1024}}
	three := Config{LineSize: 64, CacheSizes: []int64{1024, 4096, 16384}}
	opts := DefaultOptions()
	opts.Mode = ModeExact
	r1, err := Analyze(gemm(n), one, opts)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Analyze(gemm(n), three, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Levels[0].TotalMisses != r3.Levels[0].TotalMisses {
		t.Fatalf("first level differs: %d vs %d", r1.Levels[0].TotalMisses, r3.Levels[0].TotalMisses)
	}
	if r3.Levels[1].TotalMisses > r3.Levels[0].TotalMisses {
		t.Fatal("a larger cache cannot miss more often")
	}
	if r3.Levels[2].TotalMisses > r3.Levels[1].TotalMisses {
		t.Fatal("a larger cache cannot miss more often")
	}
}

func TestOptionTogglesKeepExactness(t *testing.T) {
	// Disabling the optimizations changes performance, never results.
	size := int64(12)
	if testing.Short() {
		size = 8
	}
	cfg := Config{LineSize: 32, CacheSizes: []int64{256}}
	prog := trisolvLike(size)
	ref, err := SimulateReference(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	variants := []Options{
		{Equalization: true, Rasterization: true, PartialEnumeration: true},
		{Equalization: false, Rasterization: true, PartialEnumeration: true},
		{Equalization: true, Rasterization: false, PartialEnumeration: true},
		{Equalization: false, Rasterization: false, PartialEnumeration: true},
		{Equalization: false, Rasterization: false, PartialEnumeration: false},
	}
	for i, opt := range variants {
		res, err := Analyze(prog, cfg, opt)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if res.Levels[0].TotalMisses != ref.TotalMisses[0] {
			t.Fatalf("variant %d: misses %d, reference %d", i, res.Levels[0].TotalMisses, ref.TotalMisses[0])
		}
	}
}

func TestPerStatementBreakdown(t *testing.T) {
	cfg := Config{LineSize: 8, CacheSizes: []int64{16}}
	opts := DefaultOptions()
	opts.Mode = ModeExact
	res, err := Analyze(paperExample(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	// All capacity misses of the example belong to S1; all compulsory misses
	// to S0.
	lvl := res.Levels[0]
	if lvl.PerStatementCapacity["S1"] != lvl.CapacityMisses || lvl.PerStatementCapacity["S0"] != 0 {
		t.Fatalf("capacity attribution wrong: %+v", lvl.PerStatementCapacity)
	}
	if res.PerStatementCompulsory != nil {
		if res.PerStatementCompulsory["S0"] != res.CompulsoryMisses {
			t.Fatalf("compulsory attribution wrong: %+v", res.PerStatementCompulsory)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	n := int64(16)
	if testing.Short() {
		n = 8
	}
	cfg := DefaultConfig()
	opts := DefaultOptions()
	opts.Mode = ModeExact
	res, err := Analyze(gemm(n), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.TotalTime <= 0 || s.StackDistanceTime <= 0 || s.CapacityTime <= 0 {
		t.Fatalf("timings not populated: %+v", s)
	}
	if s.CountedPieces == 0 {
		t.Fatalf("counted pieces not populated: %+v", s)
	}
	if s.AffinePieces+s.NonAffinePieces == 0 {
		t.Fatalf("piece classification not populated: %+v", s)
	}
}

func TestAnalyzeValidatesConfig(t *testing.T) {
	if _, err := Analyze(paperExample(), Config{LineSize: 0, CacheSizes: []int64{64}}, DefaultOptions()); err == nil {
		t.Fatal("expected error for zero line size")
	}
	if _, err := Analyze(paperExample(), Config{LineSize: 64}, DefaultOptions()); err == nil {
		t.Fatal("expected error for missing cache sizes")
	}
}
