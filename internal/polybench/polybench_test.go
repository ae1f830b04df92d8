package polybench

import (
	"testing"

	"haystack/internal/cachesim"
	"haystack/internal/core"
	"haystack/internal/reusedist"
	"haystack/internal/scop"
)

func TestThirtyKernelsRegistered(t *testing.T) {
	ks := Kernels()
	if len(ks) != 30 {
		t.Fatalf("expected the 30 kernels of the paper, got %d: %v", len(ks), Names())
	}
	want := []string{
		"2mm", "3mm", "adi", "atax", "bicg", "cholesky", "correlation", "covariance",
		"deriche", "doitgen", "durbin", "fdtd-2d", "floyd-warshall", "gemm", "gemver",
		"gesummv", "gramschmidt", "heat-3d", "jacobi-1d", "jacobi-2d", "lu", "ludcmp",
		"mvt", "nussinov", "seidel-2d", "symm", "syr2k", "syrk", "trisolv", "trmm",
	}
	names := Names()
	for i, w := range want {
		if names[i] != w {
			t.Fatalf("kernel %d: got %s, want %s (all: %v)", i, names[i], w, names)
		}
	}
}

func TestAllKernelsValidateAndBuild(t *testing.T) {
	for _, k := range Kernels() {
		for _, size := range []Size{Mini, Medium, Large} {
			p := k.Build(size)
			if err := p.Validate(); err != nil {
				t.Errorf("%s/%s: validate: %v", k.Name, size, err)
				continue
			}
			if _, err := scop.BuildPoly(p); err != nil {
				t.Errorf("%s/%s: polyhedral extraction: %v", k.Name, size, err)
			}
		}
	}
}

func TestKernelsProduceTraces(t *testing.T) {
	// Every kernel must produce a non-empty trace at MINI size, and larger
	// sizes must produce strictly longer traces.
	for _, k := range Kernels() {
		var prev int64
		for _, size := range []Size{Mini, Small} {
			p := k.Build(size)
			layout := scop.NewLayout(p, scop.LayoutNatural, 64)
			cp, err := scop.Compile(p, layout)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", k.Name, size, err)
			}
			n := cp.CountAccesses()
			if n == 0 {
				t.Errorf("%s/%s: empty trace", k.Name, size)
			}
			if size == Small && n <= prev {
				t.Errorf("%s: SMALL trace (%d) not longer than MINI trace (%d)", k.Name, n, prev)
			}
			prev = n
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("gemm"); !ok {
		t.Fatal("gemm not found")
	}
	if _, ok := ByName("does-not-exist"); ok {
		t.Fatal("unexpected kernel")
	}
	if Mini.String() != "MINI" || Large.String() != "LARGE" || ExtraLarge.String() != "EXTRALARGE" {
		t.Fatal("size names wrong")
	}
	if len(Sizes()) != 5 {
		t.Fatal("expected 5 sizes")
	}
}

func TestKernelsSimulateAtMini(t *testing.T) {
	// The simulator and the profiler must agree on every kernel (fully
	// associative LRU, same layout), which exercises every kernel's trace.
	cfg := cachesim.Config{LineSize: 64, Levels: []cachesim.LevelConfig{
		{Name: "L1", SizeBytes: 4 * 1024, Ways: 0, Policy: cachesim.LRU},
	}}
	for _, k := range Kernels() {
		p := k.Build(Mini)
		layout := scop.NewLayout(p, scop.LayoutNatural, 64)
		cp, err := scop.Compile(p, layout)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		res, err := cachesim.Simulate(cp, cfg)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		prof := reusedist.ProfileProgram(cp, 64)
		if got, want := res.Levels[0].Misses, prof.MissesForCapacity(4*1024/64); got != want {
			t.Errorf("%s: simulator (%d) and profiler (%d) disagree", k.Name, got, want)
		}
	}
}

// TestModelMatchesSimulationOnSelectedKernels validates the analytical model
// end to end on a representative subset of kernels at MINI size (the full
// sweep is exercised by the experiment harness; keeping the unit test to a
// subset bounds its runtime).
func TestModelMatchesSimulationOnSelectedKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("model validation is expensive")
	}
	cfg := core.Config{LineSize: 64, CacheSizes: []int64{1024, 8 * 1024}}
	opts := core.DefaultOptions()
	for _, name := range []string{"gemm", "atax", "mvt", "trisolv", "jacobi-1d"} {
		k, ok := ByName(name)
		if !ok {
			t.Fatalf("missing kernel %s", name)
		}
		p := k.Build(Mini)
		res, err := core.Analyze(p, cfg, opts)
		if err != nil {
			t.Fatalf("%s: analyze: %v", name, err)
		}
		ref, err := core.SimulateReference(p, cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		for i := range cfg.CacheSizes {
			if res.Levels[i].TotalMisses != ref.TotalMisses[i] {
				t.Errorf("%s level %d: model %d misses, reference %d (fallback=%v)",
					name, i, res.Levels[i].TotalMisses, ref.TotalMisses[i], res.UsedTraceFallback)
			}
		}
	}
}

// Names returns the kernel names in alphabetical order.
func Names() []string {
	ks := Kernels()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.Name
	}
	return out
}
