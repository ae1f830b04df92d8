package core

import (
	"errors"
	"testing"

	"haystack/internal/polybench"
	"haystack/internal/scop"
	"haystack/internal/scopcheck"
)

// brokenProgram reads past the end of its only array: the pre-flight
// verifier must reject it before the model runs.
func brokenProgram() *scop.Program {
	p := scop.NewProgram("broken")
	A := p.NewArray("A", scop.ElemFloat64, 4)
	i := scop.V("i")
	p.Add(scop.For(i, scop.C(0), scop.C(5),
		scop.Stmt("S0", scop.Read(A, scop.X(i)))))
	return p
}

func TestAnalyzeRejectsInvalidProgram(t *testing.T) {
	_, err := Analyze(brokenProgram(), DefaultConfig(), DefaultOptions())
	if !errors.Is(err, ErrInvalidProgram) {
		t.Fatalf("want ErrInvalidProgram, got %v", err)
	}
	var ipe *InvalidProgramError
	if !errors.As(err, &ipe) {
		t.Fatalf("want *InvalidProgramError, got %T", err)
	}
	if len(ipe.Diagnostics) == 0 {
		t.Fatal("error carries no diagnostics")
	}
	d := ipe.Diagnostics[0]
	if d.Kind != scopcheck.KindOutOfBounds {
		t.Fatalf("want out-of-bounds diagnostic, got %s", d)
	}
	if len(d.Witness) == 0 {
		t.Fatal("diagnostic carries no witness point")
	}
}

func TestParametricModelRejectsInvalidProgram(t *testing.T) {
	p := scop.NewProgram("brokenparam")
	N := p.NewParam("N")
	A := p.NewArrayP("A", scop.ElemFloat64, scop.X(N))
	i := scop.V("i")
	p.Add(scop.For(i, scop.C(0), scop.X(N).Plus(scop.C(1)),
		scop.Stmt("S0", scop.Read(A, scop.X(i)))))
	_, err := ComputeParametricModel(p, 64, DefaultOptions())
	if !errors.Is(err, ErrInvalidProgram) {
		t.Fatalf("want ErrInvalidProgram, got %v", err)
	}
}

// TestGemmConformanceParallel4 pins the race-detector coverage of the
// parallel pipeline at a fixed worker count: gemm at MINI with four
// workers, bit-identical against the exact reference. The CI race job runs
// this test with -race.
func TestGemmConformanceParallel4(t *testing.T) {
	k, ok := polybench.ByName("gemm")
	if !ok {
		t.Fatal("gemm not registered")
	}
	prog := k.Build(polybench.Mini)
	cfg := DefaultConfig()
	opts := DefaultOptions()
	opts.Parallelism = 4
	res, err := Analyze(prog, cfg, opts)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	ref, err := SimulateReference(prog, cfg)
	if err != nil {
		t.Fatalf("SimulateReference: %v", err)
	}
	if res.UsedTraceFallback {
		t.Errorf("symbolic pipeline fell back to trace profiling: %s", res.FallbackReason)
	}
	if res.TotalAccesses != ref.TotalAccesses {
		t.Errorf("total accesses: model %d, reference %d", res.TotalAccesses, ref.TotalAccesses)
	}
	if res.CompulsoryMisses != ref.CompulsoryMisses {
		t.Errorf("compulsory misses: model %d, reference %d", res.CompulsoryMisses, ref.CompulsoryMisses)
	}
	for l, lvl := range res.Levels {
		if lvl.TotalMisses != ref.TotalMisses[l] {
			t.Errorf("L%d total misses: model %d, reference %d", l+1, lvl.TotalMisses, ref.TotalMisses[l])
		}
	}
}
