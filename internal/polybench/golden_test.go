package polybench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"haystack/internal/core"
	"haystack/internal/scop"
)

// goldenEntry is the checked-in expected result of one kernel at MINI under
// one fixture's cache configuration.
type goldenEntry struct {
	TotalAccesses    int64   `json:"total_accesses"`
	CompulsoryMisses int64   `json:"compulsory_misses"`
	TotalMisses      []int64 `json:"total_misses"`
}

// goldenFixture pins one cache configuration: the reference engine's
// per-kernel results at MINI are checked in at path.
type goldenFixture struct {
	name string
	path string
	cfg  core.Config
}

// goldenFixtures are the fully associative configurations of
// TestGoldenConformance. At the default 32 KiB + 1 MiB levels 29 of the 30
// kernels have no capacity misses at MINI, so that fixture pins little more
// than the set of lines touched; at 512 B + 2 KiB 29 kernels have capacity
// misses in L1, so the second fixture also pins the order of the accesses.
var goldenFixtures = []goldenFixture{
	{name: "default", path: "testdata/golden_mini.json", cfg: core.DefaultConfig()},
	{name: "512B-2KiB", path: "testdata/golden_small_caches_mini.json",
		cfg: core.Config{LineSize: 64, CacheSizes: []int64{512, 2048}}},
}

// reference is the engine a golden tier pins (SimulateReference or
// SimulateSetAssocReference).
type reference func(*scop.Program, core.Config) (core.Reference, error)

// writeGolden regenerates the fixture at path from the reference engine.
func writeGolden(t *testing.T, path string, cfg core.Config, ref reference) {
	t.Helper()
	golden := map[string]goldenEntry{}
	for _, k := range Kernels() {
		r, err := ref(k.Build(Mini), cfg)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		golden[k.Name] = goldenEntry{
			TotalAccesses:    r.TotalAccesses,
			CompulsoryMisses: r.CompulsoryMisses,
			TotalMisses:      r.TotalMisses,
		}
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %s with %d kernels", path, len(golden))
}

// loadGolden reads the fixture at path and checks it covers the registry.
func loadGolden(t *testing.T, path string) map[string]goldenEntry {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture %s (regenerate with UPDATE_GOLDEN=1 go test ./internal/polybench -run Golden): %v", path, err)
	}
	var golden map[string]goldenEntry
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	if got, want := len(Kernels()), len(golden); got != want {
		t.Errorf("%s covers %d kernels, registry has %d (regenerate with UPDATE_GOLDEN=1)", path, want, got)
	}
	return golden
}

// checkGolden asserts the reference engine's result for one kernel against
// its fixture entry.
func checkGolden(t *testing.T, golden map[string]goldenEntry, path string, k Kernel, cfg core.Config, ref reference) {
	t.Helper()
	want, ok := golden[k.Name]
	if !ok {
		t.Fatalf("kernel %s missing from %s (regenerate with UPDATE_GOLDEN=1)", k.Name, path)
	}
	r, err := ref(k.Build(Mini), cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if r.TotalAccesses != want.TotalAccesses {
		t.Errorf("total accesses: got %d, golden %d", r.TotalAccesses, want.TotalAccesses)
	}
	if r.CompulsoryMisses != want.CompulsoryMisses {
		t.Errorf("compulsory misses: got %d, golden %d", r.CompulsoryMisses, want.CompulsoryMisses)
	}
	if len(r.TotalMisses) != len(want.TotalMisses) {
		t.Fatalf("level count: got %d, golden %d", len(r.TotalMisses), len(want.TotalMisses))
	}
	for l, m := range r.TotalMisses {
		if m != want.TotalMisses[l] {
			t.Errorf("L%d total misses: got %d, golden %d", l+1, m, want.TotalMisses[l])
		}
	}
}

// TestGoldenConformance asserts the exact reference engine against the
// checked-in per-kernel miss counts for all 30 kernels at MINI, once per
// fully associative fixture (subtests <kernel>/<fixture>). The tier costs
// milliseconds per kernel (trace replay, no symbolic analysis and no cache
// simulator), so it runs on every push and pins the expected numbers
// independently of the engines: the symbolic tier asserts Analyze against
// SimulateReference, this tier asserts SimulateReference against the
// fixtures, so a drift in either engine is caught and attributable.
//
// Set UPDATE_GOLDEN=1 to regenerate the fixtures after an intentional change
// (new kernel, changed configuration).
func TestGoldenConformance(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		for _, fx := range goldenFixtures {
			writeGolden(t, fx.path, fx.cfg, core.SimulateReference)
		}
		return
	}
	golden := make([]map[string]goldenEntry, len(goldenFixtures))
	for i, fx := range goldenFixtures {
		golden[i] = loadGolden(t, fx.path)
	}
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			for i, fx := range goldenFixtures {
				t.Run(fx.name, func(t *testing.T) {
					checkGolden(t, golden[i], fx.path, k, fx.cfg, core.SimulateReference)
				})
			}
		})
	}
}
