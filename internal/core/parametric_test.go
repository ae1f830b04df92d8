package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"haystack/internal/polybench"
	"haystack/internal/scop"
)

// Parametric models are expensive to build (minutes for jacobi-2d on one
// core), so the differential tests share one model per kernel.
var (
	pmCacheMu sync.Mutex
	pmCache   = map[string]*ParametricModel{}
)

func sharedParametricModel(t *testing.T, pk polybench.ParametricKernel, lineSize int64) *ParametricModel {
	t.Helper()
	pmCacheMu.Lock()
	defer pmCacheMu.Unlock()
	if pm, ok := pmCache[pk.Name]; ok && pm.LineSize == lineSize {
		return pm
	}
	pm, err := ComputeParametricModel(pk.Build(), lineSize, DefaultOptions())
	if err != nil {
		t.Fatalf("ComputeParametricModel(%s): %v", pk.Name, err)
	}
	pmCache[pk.Name] = pm
	return pm
}

// parametricBudget estimates the single-core cost of a kernel's
// differential run (model construction plus per-size concrete analyses),
// for requireBudget gating.
func parametricBudget(name string) time.Duration {
	switch name {
	case "jacobi-2d":
		// ~3 min model + minutes of concrete jacobi-2d analyses.
		return 15 * time.Minute
	default:
		return 2 * time.Minute
	}
}

// tinyParametric is a two-loop vector kernel with one symbolic size: small
// enough for exhaustive cross-checks at many parameter values.
func tinyParametric() *scop.Program {
	p := scop.NewProgram("tiny")
	n := p.NewParam("N")
	A := p.NewArrayP("A", scop.ElemFloat64, scop.X(n))
	i, j := scop.V("i"), scop.V("j")
	p.Add(
		scop.For(i, scop.C(0), scop.X(n),
			scop.Stmt("S0", scop.Read(A, scop.X(i)))),
		scop.For(j, scop.C(0), scop.X(n),
			scop.Stmt("S1", scop.Read(A, scop.X(j)))),
	)
	return p
}

// requireSameResult asserts that two analysis results agree on every modeled
// count (totals, compulsory, per-level misses, and the per-statement
// breakdowns where both sides have them).
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.TotalAccesses != want.TotalAccesses {
		t.Errorf("%s: total accesses %d, want %d", label, got.TotalAccesses, want.TotalAccesses)
	}
	if got.CompulsoryMisses != want.CompulsoryMisses {
		t.Errorf("%s: compulsory misses %d, want %d", label, got.CompulsoryMisses, want.CompulsoryMisses)
	}
	if len(got.Levels) != len(want.Levels) {
		t.Fatalf("%s: %d levels, want %d", label, len(got.Levels), len(want.Levels))
	}
	for l := range got.Levels {
		if got.Levels[l].CapacityMisses != want.Levels[l].CapacityMisses {
			t.Errorf("%s: L%d capacity misses %d, want %d", label, l+1, got.Levels[l].CapacityMisses, want.Levels[l].CapacityMisses)
		}
		if got.Levels[l].TotalMisses != want.Levels[l].TotalMisses {
			t.Errorf("%s: L%d total misses %d, want %d", label, l+1, got.Levels[l].TotalMisses, want.Levels[l].TotalMisses)
		}
		if got.Levels[l].PerStatementCapacity != nil && want.Levels[l].PerStatementCapacity != nil {
			for stmt, n := range want.Levels[l].PerStatementCapacity {
				if got.Levels[l].PerStatementCapacity[stmt] != n {
					t.Errorf("%s: L%d capacity misses of %s: %d, want %d",
						label, l+1, stmt, got.Levels[l].PerStatementCapacity[stmt], n)
				}
			}
		}
	}
	if got.PerStatementCompulsory != nil && want.PerStatementCompulsory != nil {
		for stmt, n := range want.PerStatementCompulsory {
			if got.PerStatementCompulsory[stmt] != n {
				t.Errorf("%s: compulsory misses of %s: %d, want %d", label, stmt, got.PerStatementCompulsory[stmt], n)
			}
		}
	}
}

// TestTinyParametricAgainstSimulation validates the full parametric pipeline
// on the tiny kernel against the exact reference simulation across many
// sizes, including degenerate ones.
func TestTinyParametricAgainstSimulation(t *testing.T) {
	prog := tinyParametric()
	pm, err := ComputeParametricModel(prog, 64, DefaultOptions())
	if err != nil {
		t.Fatalf("ComputeParametricModel: %v", err)
	}
	cfg := Config{LineSize: 64, CacheSizes: []int64{1024, 32 * 1024}}
	for _, n := range []int64{1, 2, 7, 8, 9, 63, 64, 65, 100, 1000} {
		bindings := map[string]int64{"N": n}
		res, err := pm.Eval(cfg, bindings)
		if err != nil {
			t.Fatalf("Eval N=%d: %v", n, err)
		}
		inst, err := prog.Instantiate(bindings)
		if err != nil {
			t.Fatalf("Instantiate N=%d: %v", n, err)
		}
		ref, err := SimulateReference(inst, cfg)
		if err != nil {
			t.Fatalf("SimulateReference N=%d: %v", n, err)
		}
		if res.TotalAccesses != ref.TotalAccesses || res.CompulsoryMisses != ref.CompulsoryMisses {
			t.Errorf("N=%d: accesses/compulsory %d/%d, reference %d/%d",
				n, res.TotalAccesses, res.CompulsoryMisses, ref.TotalAccesses, ref.CompulsoryMisses)
		}
		for l := range cfg.CacheSizes {
			if res.Levels[l].TotalMisses != ref.TotalMisses[l] {
				t.Errorf("N=%d L%d: total misses %d, reference %d", n, l+1, res.Levels[l].TotalMisses, ref.TotalMisses[l])
			}
		}
	}
}

// parametricKernelsUnderTest returns the parametric kernels the differential
// tests cover: the cheap ones in every mode, all of them when the -timeout
// budget allows (the jacobi-2d model alone takes minutes of symbolic
// analysis on one core; its subtests gate on requireBudget).
func parametricKernelsUnderTest(t *testing.T) []polybench.ParametricKernel {
	var out []polybench.ParametricKernel
	for _, pk := range polybench.ParametricKernels() {
		if testing.Short() && pk.Name == "jacobi-2d" {
			continue
		}
		out = append(out, pk)
	}
	if len(out) == 0 {
		t.Fatal("no parametric kernels registered")
	}
	return out
}

// TestParametricEvalMatchesAnalyze is the parametric differential suite: for
// every parametric PolyBench kernel, one ComputeParametricModel evaluated at
// the standard sizes must be bit-identical to a concrete Analyze of the
// registry kernel at that size. MINI and SMALL are covered in every mode
// (the parametric model is shared across the sizes, so the marginal cost per
// size is small).
func TestParametricEvalMatchesAnalyze(t *testing.T) {
	reportBudget(t)
	cfg := DefaultConfig()
	for _, pk := range parametricKernelsUnderTest(t) {
		pk := pk
		t.Run(pk.Name, func(t *testing.T) {
			requireBudget(t, parametricBudget(pk.Name))
			ck, ok := polybench.ByName(pk.Name)
			if !ok {
				t.Fatalf("no concrete kernel %s", pk.Name)
			}
			pm := sharedParametricModel(t, pk, cfg.LineSize)
			t.Logf("%d distance pieces: %d parametric, %d residual",
				pm.DistancePieces(), pm.ParametricPieces(), pm.ResidualPieces())
			for _, sz := range []polybench.Size{polybench.Mini, polybench.Small} {
				res, err := pm.Eval(cfg, pk.Bindings(sz))
				if err != nil {
					t.Fatalf("Eval %v: %v", sz, err)
				}
				want, err := Analyze(ck.Build(sz), cfg, DefaultOptions())
				if err != nil {
					t.Fatalf("Analyze %v: %v", sz, err)
				}
				if want.UsedTraceFallback {
					t.Fatalf("concrete analysis of %s fell back to tracing (%s); the differential is vacuous", pk.Name, want.FallbackReason)
				}
				requireSameResult(t, sz.String(), res, want)
			}
		})
	}
}

// parametricTrmm builds the parametric trmm model under opts. trmm is the
// kernel with the most residual pieces (52 non-affine distance pieces counted
// per evaluation), so its Eval exercises the shared counting engine hardest.
func parametricTrmm(t *testing.T, opts Options) (*ParametricModel, polybench.ParametricKernel) {
	t.Helper()
	pk, ok := polybench.ParametricByName("trmm")
	if !ok {
		t.Fatal("no parametric trmm")
	}
	pm, err := ComputeParametricModel(pk.Build(), 64, opts)
	if err != nil {
		t.Fatalf("ComputeParametricModel(trmm): %v", err)
	}
	if pm.ResidualPieces() == 0 {
		t.Fatal("trmm has no residual pieces; the test would not count any")
	}
	return pm, pk
}

// TestParametricEvalBounded runs Eval on the bounded tier: with a one-unit
// budget every residual piece degrades, and each level's certified intervals
// must still contain the exact Eval counts, with Stats.BoundWidth matching
// the total interval and provenance on every inexact level. With an ample
// budget nothing may widen.
func TestParametricEvalBounded(t *testing.T) {
	cfg := Config{LineSize: 64, CacheSizes: []int64{512, 2048}}
	exactOpts := DefaultOptions()
	exactOpts.Mode = ModeExact
	exact, pk := parametricTrmm(t, exactOpts)
	boundedOpts := DefaultOptions()
	boundedOpts.Mode = ModeBounded
	boundedOpts.Budget = 1
	bounded, _ := parametricTrmm(t, boundedOpts)
	boundedOpts.Budget = 0
	ample, _ := parametricTrmm(t, boundedOpts)
	for _, sz := range []polybench.Size{polybench.Mini, polybench.Small} {
		want, err := exact.Eval(cfg, pk.Bindings(sz))
		if err != nil {
			t.Fatalf("exact Eval %v: %v", sz, err)
		}
		res, err := bounded.Eval(cfg, pk.Bindings(sz))
		if err != nil {
			t.Fatalf("bounded Eval %v: %v", sz, err)
		}
		for l, lvl := range res.Levels {
			w := want.Levels[l]
			if !lvl.CapacityMissBounds.Contains(w.CapacityMisses) {
				t.Errorf("%v L%d: capacity bounds %v do not contain exact %d", sz, l+1, lvl.CapacityMissBounds, w.CapacityMisses)
			}
			if !lvl.TotalMissBounds.Contains(w.TotalMisses) {
				t.Errorf("%v L%d: total bounds %v do not contain exact %d", sz, l+1, lvl.TotalMissBounds, w.TotalMisses)
			}
			width := lvl.TotalMissBounds.Width()
			if res.Stats.BoundWidth[l] != width {
				t.Errorf("%v L%d: Stats.BoundWidth %d, interval width %d", sz, l+1, res.Stats.BoundWidth[l], width)
			}
			if width > 0 && (res.FallbackReason == "" || res.Tier != TierBounded) {
				t.Errorf("%v L%d: width %d but tier %s, provenance %q", sz, l+1, width, res.Tier, res.FallbackReason)
			}
		}
		res, err = ample.Eval(cfg, pk.Bindings(sz))
		if err != nil {
			t.Fatalf("ample bounded Eval %v: %v", sz, err)
		}
		if res.Tier != TierExact {
			t.Errorf("%v: ample budget gave tier %s (%s)", sz, res.Tier, res.FallbackReason)
		}
		for l, lvl := range res.Levels {
			if res.Stats.BoundWidth[l] != 0 || lvl.TotalMisses != want.Levels[l].TotalMisses {
				t.Errorf("%v L%d: ample budget gave %d misses, width %d; want exact %d",
					sz, l+1, lvl.TotalMisses, res.Stats.BoundWidth[l], want.Levels[l].TotalMisses)
			}
		}
	}
}

// TestParametricEvalWorkerCountInvariance checks that Eval, which fans its
// residual pieces out over the model's executor, answers bit-identically at
// one and at four workers: every level (per-statement counts and bounds
// included) and the counted-piece statistic.
func TestParametricEvalWorkerCountInvariance(t *testing.T) {
	cfg := Config{LineSize: 64, CacheSizes: []int64{512, 2048}}
	var results [2]*Result
	for i, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Parallelism = workers
		pm, pk := parametricTrmm(t, opts)
		res, err := pm.Eval(cfg, pk.Bindings(polybench.Small))
		if err != nil {
			t.Fatalf("Eval at %d workers: %v", workers, err)
		}
		if res.Stats.CapacityWorkers != workers {
			t.Errorf("Eval ran %d capacity workers, want %d", res.Stats.CapacityWorkers, workers)
		}
		results[i] = res
	}
	if !reflect.DeepEqual(results[0].Levels, results[1].Levels) {
		t.Errorf("levels differ between 1 and 4 workers:\n%+v\n%+v", results[0].Levels, results[1].Levels)
	}
	if a, b := results[0].Stats.CountedPieces, results[1].Stats.CountedPieces; a != b {
		t.Errorf("counted pieces: %d at 1 worker, %d at 4", a, b)
	}
}

// TestParametricModelValidation covers the error paths of the parametric
// entry points: missing/unknown parameters, context violations, line size
// mismatches, and the guard that keeps parametric programs out of the
// concrete pipeline.
func TestParametricModelValidation(t *testing.T) {
	prog := tinyParametric()
	if _, err := ComputeDistances(prog, 64, DefaultOptions()); err == nil {
		t.Error("ComputeDistances accepted a parametric program")
	}
	if _, err := Analyze(prog, DefaultConfig(), DefaultOptions()); err == nil {
		t.Error("Analyze accepted a parametric program")
	}
	pm, err := ComputeParametricModel(prog, 64, DefaultOptions())
	if err != nil {
		t.Fatalf("ComputeParametricModel: %v", err)
	}
	cfg := Config{LineSize: 64, CacheSizes: []int64{1024}}
	if _, err := pm.Eval(cfg, map[string]int64{}); err == nil {
		t.Error("Eval accepted an empty binding")
	}
	if _, err := pm.Eval(cfg, map[string]int64{"N": 4, "M": 1}); err == nil {
		t.Error("Eval accepted an unknown parameter")
	}
	if _, err := pm.Eval(cfg, map[string]int64{"N": 0}); err == nil {
		t.Error("Eval accepted a binding violating the context N >= 1")
	}
	if _, err := pm.Eval(Config{LineSize: 32, CacheSizes: []int64{1024}}, map[string]int64{"N": 4}); err == nil {
		t.Error("Eval accepted a mismatched line size")
	}
	if _, err := ComputeParametricModel(gemm(8), 64, DefaultOptions()); err == nil {
		t.Error("ComputeParametricModel accepted a non-parametric program")
	}
	// ErrNonParametric is a typed, wrappable error.
	if !errors.Is(nonParametric("stage", errors.New("boom")), ErrNonParametric) {
		t.Error("nonParametric does not wrap ErrNonParametric")
	}
}

// TestParametricEvalConcurrentBindings evaluates one shared parametric gemm
// model from several goroutines at once, each at a different binding and
// each binding twice, on capacities the first evaluations memoize
// concurrently. Every result must equal the Analyze of the instantiated
// program. Run under -race it covers the model's memo cache and the
// per-evaluation counting executors.
func TestParametricEvalConcurrentBindings(t *testing.T) {
	pk, ok := polybench.ParametricByName("gemm")
	if !ok {
		t.Fatal("no parametric gemm")
	}
	cfg := Config{LineSize: 64, CacheSizes: []int64{512, 2048}}
	pm := sharedParametricModel(t, pk, cfg.LineSize)
	bindings := []map[string]int64{
		pk.Bindings(polybench.Mini),
		{"NI": 7, "NJ": 9, "NK": 5},
		{"NI": 16, "NJ": 3, "NK": 11},
		{"NI": 12, "NJ": 20, "NK": 8},
	}
	want := make([]*Result, len(bindings))
	for i, b := range bindings {
		inst, err := pk.Build().Instantiate(b)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = Analyze(inst, cfg, DefaultOptions()); err != nil {
			t.Fatalf("Analyze %v: %v", b, err)
		}
		if want[i].Levels[0].CapacityMisses == 0 {
			t.Fatalf("%v has no L1 capacity misses; the differential would not count any", b)
		}
	}
	got := make([]*Result, 2*len(bindings))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = pm.Eval(cfg, bindings[g%len(bindings)])
		}(g)
	}
	wg.Wait()
	for g, res := range got {
		b := bindings[g%len(bindings)]
		if errs[g] != nil {
			t.Fatalf("Eval %v: %v", b, errs[g])
		}
		requireSameResult(t, fmt.Sprint(b), res, want[g%len(bindings)])
	}
}
