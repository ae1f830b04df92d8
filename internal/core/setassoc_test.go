package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"haystack/internal/polybench"
	"haystack/internal/scop"
)

// setAssocTestConfig is the small set-associative hierarchy the conformance
// tier runs: an 8-line L1 split 2 ways of 4 (2 sets) and a 32-line L2 split
// 4 ways of 8 (4 sets). Small set counts keep the per-set fan-out cheap
// while still exercising residue partitioning, per-set classification, and
// the set-order fold on every kernel.
func setAssocTestConfig() Config {
	return Config{LineSize: 64, CacheSizes: []int64{512, 2048}, Ways: []int{4, 8}}
}

// setAssocCheck requires the analytical set-associative counts to be
// bit-identical to the reference simulation (independent per-level LRU
// caches with the same geometry over the same padded layout).
func setAssocCheck(t *testing.T, prog *scop.Program, cfg Config, opts Options) *Result {
	t.Helper()
	res, err := Analyze(prog, cfg, opts)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	ref, err := SimulateSetAssocReference(prog, cfg)
	if err != nil {
		t.Fatalf("SimulateSetAssocReference: %v", err)
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
	return res
}

// saMiniSeconds holds measured single-core set-associative Analyze
// durations at MINI under setAssocTestConfig (dev reference box). The cost
// is NOT a multiple of the fully associative symbolic time: the per-set
// re-count scales with the residue-striped card bags, and the rasterized
// classification scales with instances x bag size, so instance-heavy
// kernels (floyd-warshall, heat-3d) dominate regardless of their symbolic
// cost. floyd-warshall is re-measured (45 s on a 2-CPU box); heat-3d (42 s
// there) keeps its older figure so the default -timeout still skips it and
// leaves budget for the kernels after it.
// Unlisted kernels default to 120 seconds.
var saMiniSeconds = map[string]float64{
	"2mm": 3, "3mm": 5, "adi": 1, "atax": 1, "bicg": 1, "cholesky": 8,
	"correlation": 9, "covariance": 8, "deriche": 4, "doitgen": 8,
	"durbin": 3, "fdtd-2d": 12, "floyd-warshall": 50, "gemm": 2,
	"gemver": 3, "gesummv": 1, "gramschmidt": 3, "heat-3d": 161,
	"jacobi-1d": 2, "jacobi-2d": 20, "lu": 14, "ludcmp": 23, "mvt": 1,
	"nussinov": 13, "seidel-2d": 28, "symm": 7, "syr2k": 5, "syrk": 2,
	"trisolv": 1, "trmm": 2,
}

func saMiniEstimate(name string) time.Duration {
	if s, ok := saMiniSeconds[name]; ok {
		return time.Duration(s * float64(time.Second))
	}
	return 120 * time.Second
}

// TestSetAssocConformance cross-validates the set-associative analytical
// tier against the exact reference simulation for every registered
// PolyBench kernel at MINI: per-level total misses, compulsory misses, and
// total accesses must be bit-identical for a genuinely set-associative
// hierarchy. Kernels answer through the symbolic pipeline except the known
// trace-fallback holdout (adi), whose set-associative answers come from the
// simulation rung of the fallback and stay exact. The full sweep takes
// ~7.5 minutes single-core; each subtest sizes itself to the remaining
// -timeout budget, so short timeouts run the cheap kernels and skip the
// rest (the CI set-associative tier pins a fast subset, the full sweep
// runs with a generous timeout).
func TestSetAssocConformance(t *testing.T) {
	reportBudget(t)
	cfg := setAssocTestConfig()
	for _, k := range polybench.Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			// 3x the measured estimate keeps the suite safe under the race
			// detector's slowdown.
			requireBudget(t, 3*saMiniEstimate(k.Name))
			prog := k.Build(polybench.Mini)
			res := setAssocCheck(t, prog, cfg, DefaultOptions())
			if res.UsedTraceFallback && !traceFallbackAllowed[k.Name] {
				t.Errorf("symbolic pipeline regressed to trace fallback: %s", res.FallbackReason)
			}
			if !res.UsedTraceFallback {
				if len(res.Stats.SetAssoc) != 2 {
					t.Fatalf("Stats.SetAssoc has %d entries, want 2 (both levels are set-associative)", len(res.Stats.SetAssoc))
				}
				for i, want := range []int64{2, 4} {
					if sa := res.Stats.SetAssoc[i]; sa.Sets != want || len(sa.SetPieces) != int(want) {
						t.Errorf("Stats.SetAssoc[%d] = %+v, want %d sets with per-set piece counts", i, sa, want)
					}
				}
			}
		})
	}
}

// TestSetAssocDegenerateWaysEqualLines pins the degenerate geometry: when
// the way count equals the number of lines, a set-associative cache has one
// set and IS the fully associative cache, and the analytical pipeline must
// route through the classic counter and reproduce the fully associative
// result bit-for-bit — counts, per-statement breakdowns, and every
// deterministic Stats counter.
func TestSetAssocDegenerateWaysEqualLines(t *testing.T) {
	prog := gemm(12)
	cfg := Config{LineSize: 64, CacheSizes: []int64{512, 2048}}
	opts := DefaultOptions()
	opts.Parallelism = 2
	want, err := Analyze(prog, cfg, opts)
	if err != nil {
		t.Fatalf("fully associative analyze: %v", err)
	}
	cfgSA := cfg
	cfgSA.Ways = []int{8, 32} // == lines per level: one set each
	got, err := Analyze(prog, cfgSA, opts)
	if err != nil {
		t.Fatalf("ways==lines analyze: %v", err)
	}
	compareResults(t, "ways==lines", got, want)
	if len(got.Stats.SetAssoc) != 0 {
		t.Errorf("one-set levels must not report SetAssoc stats, got %+v", got.Stats.SetAssoc)
	}
}

// TestSetAssocZeroWaysIsFullyAssociative pins the compatibility contract:
// Ways of zero (or an absent Ways slice) means fully associative, and a
// config spelling that out explicitly must reproduce the existing result
// byte-for-byte, so pre-set-associativity golden counts stay valid.
func TestSetAssocZeroWaysIsFullyAssociative(t *testing.T) {
	prog := gemm(12)
	opts := DefaultOptions()
	want, err := Analyze(prog, Config{LineSize: 64, CacheSizes: []int64{512, 2048}}, opts)
	if err != nil {
		t.Fatalf("analyze without Ways: %v", err)
	}
	got, err := Analyze(prog, Config{LineSize: 64, CacheSizes: []int64{512, 2048}, Ways: []int{0, 0}}, opts)
	if err != nil {
		t.Fatalf("analyze with zero Ways: %v", err)
	}
	compareResults(t, "zero ways", got, want)
}

// compareResults requires two analysis results to be bit-identical up to
// the scheduling- and timing-dependent observability fields.
func compareResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.TotalAccesses != want.TotalAccesses || got.CompulsoryMisses != want.CompulsoryMisses {
		t.Errorf("%s: accesses/compulsory differ: got %d/%d, want %d/%d",
			label, got.TotalAccesses, got.CompulsoryMisses, want.TotalAccesses, want.CompulsoryMisses)
	}
	if !reflect.DeepEqual(got.Levels, want.Levels) {
		t.Errorf("%s: levels differ:\ngot  %+v\nwant %+v", label, got.Levels, want.Levels)
	}
	if !reflect.DeepEqual(counterStats(got.Stats), counterStats(want.Stats)) {
		t.Errorf("%s: deterministic stats differ:\ngot  %+v\nwant %+v",
			label, counterStats(got.Stats), counterStats(want.Stats))
	}
}

// randomAffineNest generates a small affine loop nest from the seeded
// source: one or two loops, one or two statements, mixed 1-D and 2-D
// accesses with small offsets, skewed and transposed subscripts. The shapes
// mirror the patterns that stress set partitioning — row-major walks,
// transposes (which stripe sets by row parity), and single-line hotspots.
func randomAffineNest(r *rand.Rand, id int) *scop.Program {
	n := 8 + r.Int63n(13) // 8..20
	p := scop.NewProgram(fmt.Sprintf("rand%d", id))
	a2 := p.NewArray("A", scop.ElemFloat64, n+2, n+2)
	b1 := p.NewArray("B", scop.ElemFloat64, 3*n+4)
	i, j := scop.V("i"), scop.V("j")
	xi, xj := scop.X(i), scop.X(j)
	// Subscripts stay unit-coefficient (the counting fragment's
	// Fourier-Motzkin eliminator): transposes, skews, and offsets.
	idx2 := []scop.Expr{xi, xj, xi.Plus(scop.C(1)), xj.Plus(scop.C(1))}
	idx1 := []scop.Expr{xi, xj, xi.Plus(xj), xj.Plus(scop.C(2)), xi.Plus(xj).Plus(scop.C(1))}
	// The statement after the inner loop sees only i in scope.
	idx2o := []scop.Expr{xi, xi.Plus(scop.C(1))}
	idx1o := []scop.Expr{xi, xi.Plus(scop.C(2))}
	pick := func(exprs []scop.Expr) scop.Expr { return exprs[r.Intn(len(exprs))] }
	stmt := func(name string, e2, e1 []scop.Expr) *scop.Statement {
		var accs []scop.Access
		for na := 1 + r.Intn(2); na > 0; na-- {
			if r.Intn(2) == 0 {
				accs = append(accs, scop.Read(a2, pick(e2), pick(e2)))
			} else {
				accs = append(accs, scop.Read(b1, pick(e1)))
			}
		}
		if r.Intn(2) == 0 {
			accs = append(accs, scop.Write(a2, pick(e2), pick(e2)))
		} else {
			accs = append(accs, scop.Write(b1, pick(e1)))
		}
		return scop.Stmt(name, accs...)
	}
	inner := scop.For(j, scop.C(0), scop.C(n), stmt("S0", idx2, idx1))
	if r.Intn(3) == 0 {
		p.Add(scop.For(i, scop.C(0), scop.C(n), inner, stmt("S1", idx2o, idx1o)))
	} else {
		p.Add(scop.For(i, scop.C(0), scop.C(n), inner))
	}
	return p
}

// TestSetAssocRandomizedDifferential fuzzes the set-associative analytical
// tier against the reference simulation: seeded random affine loop nests,
// swept across associativities 1, 2, 4, and 8 at a 32-byte line size with
// two- and four-set geometries. The seed is fixed, so a failure reproduces
// deterministically.
func TestSetAssocRandomizedDifferential(t *testing.T) {
	reportBudget(t)
	r := rand.New(rand.NewSource(20260809))
	programs := 8
	if testing.Short() {
		programs = 3
	}
	opts := DefaultOptions()
	opts.Mode = ModeExact
	for id := 0; id < programs; id++ {
		prog := randomAffineNest(r, id)
		for _, ways := range []int{1, 2, 4, 8} {
			sets := int64(2)
			if ways <= 2 {
				sets = 4
			}
			cfg := Config{
				LineSize:   32,
				CacheSizes: []int64{32 * int64(ways) * sets},
				Ways:       []int{ways},
			}
			t.Run(fmt.Sprintf("%s/ways%d", prog.Name, ways), func(t *testing.T) {
				requireBudget(t, 20*time.Second)
				setAssocCheck(t, prog, cfg, opts)
			})
		}
	}
}

// TestSetAssocParallelismInvariance asserts the set-associative counts and
// every deterministic Stats counter — including the per-set piece counts of
// Stats.SetAssoc — are bit-identical across worker counts: the per-set
// results are folded in set order regardless of which worker counted which
// set.
func TestSetAssocParallelismInvariance(t *testing.T) {
	prog := gemm(12)
	cfg := Config{LineSize: 64, CacheSizes: []int64{512, 2048}, Ways: []int{4, 8}}
	opts := DefaultOptions()
	opts.Mode = ModeExact
	opts.Parallelism = 1
	seq, err := Analyze(prog, cfg, opts)
	if err != nil {
		t.Fatalf("sequential analyze: %v", err)
	}
	if len(seq.Stats.SetAssoc) != 2 {
		t.Fatalf("Stats.SetAssoc has %d entries, want 2", len(seq.Stats.SetAssoc))
	}
	for _, par := range []int{2, 4} {
		opts.Parallelism = par
		got, err := Analyze(prog, cfg, opts)
		if err != nil {
			t.Fatalf("parallel analyze (%d workers): %v", par, err)
		}
		compareResults(t, fmt.Sprintf("parallelism %d", par), got, seq)
		if !reflect.DeepEqual(got.Stats.SetAssoc, seq.Stats.SetAssoc) {
			t.Errorf("parallelism %d: SetAssoc stats differ:\ngot  %+v\nwant %+v",
				par, got.Stats.SetAssoc, seq.Stats.SetAssoc)
		}
	}
}
