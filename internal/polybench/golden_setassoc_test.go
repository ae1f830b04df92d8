package polybench

import (
	"os"
	"testing"

	"haystack/internal/core"
)

const goldenSetAssocPath = "testdata/golden_setassoc_mini.json"

// goldenSetAssocConfig is the realistic set-associative hierarchy the fixture
// pins: the default 32 KiB + 1 MiB levels at 8 and 16 ways (64 and 1024
// sets) — the geometry of a typical desktop L1/L2 pair.
func goldenSetAssocConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Ways = []int{8, 16}
	return cfg
}

// TestGoldenSetAssocConformance asserts the set-associative reference engine
// against checked-in per-kernel miss counts for all 30 kernels at MINI under
// a realistic 8-way L1 / 16-way L2 geometry. Like the fully associative
// golden tier it costs milliseconds per kernel (trace replay into the LRU
// cache simulator), pinning the set-associative numbers independently of the
// analytical tier: TestSetAssocConformance asserts Analyze against
// SimulateSetAssocReference, this tier asserts SimulateSetAssocReference
// against the fixture.
//
// Set UPDATE_GOLDEN=1 to regenerate the fixture after an intentional change.
func TestGoldenSetAssocConformance(t *testing.T) {
	cfg := goldenSetAssocConfig()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		writeGolden(t, goldenSetAssocPath, cfg, core.SimulateSetAssocReference)
		return
	}
	golden := loadGolden(t, goldenSetAssocPath)
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			checkGolden(t, golden, goldenSetAssocPath, k, cfg, core.SimulateSetAssocReference)
		})
	}
}
