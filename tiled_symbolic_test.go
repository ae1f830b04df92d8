package haystack_test

import (
	"testing"

	"haystack"
	"haystack/internal/core"
	"haystack/internal/polybench"
	"haystack/internal/tiling"
)

// TestTiledSymbolicMatchesReference is the end-to-end validation of the
// coalescing layer: the fully symbolic analysis of the 2D-tiled PolyBench
// gemm (SMALL, tile 16) must terminate quickly enough to run as a test at
// all (pre-coalescing it did not finish within 38 minutes) and its miss
// counts must be bit-identical to the exact trace-profile reference on the
// tiled program. The coalescing statistics must show the mechanism, not
// just the outcome: a bounded peak basic-map count and non-zero rule hits.
func TestTiledSymbolicMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("symbolic analysis of the tiled kernel takes tens of seconds")
	}
	k, ok := polybench.ByName("gemm")
	if !ok {
		t.Fatal("gemm kernel missing")
	}
	tiled, didTile := tiling.Tile(k.Build(polybench.Small), 16)
	if !didTile {
		t.Fatal("gemm should have a rectangular tiling")
	}
	opts := haystack.DefaultOptions()
	opts.Mode = haystack.ModeExact // fail loudly if the symbolic pipeline gives up
	cfg := haystack.Config{LineSize: 64, CacheSizes: []int64{32 * 1024, 1024 * 1024}}

	dm, err := core.ComputeDistances(tiled, cfg.LineSize, opts)
	if err != nil {
		t.Fatalf("symbolic ComputeDistances on tiled gemm: %v", err)
	}
	res, err := dm.CountMisses(cfg)
	if err != nil {
		t.Fatalf("CountMisses: %v", err)
	}
	if res.UsedTraceFallback {
		t.Fatal("analysis fell back to trace profiling")
	}

	ref, err := core.SimulateReference(tiled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAccesses != ref.TotalAccesses {
		t.Errorf("accesses: model %d, reference %d", res.TotalAccesses, ref.TotalAccesses)
	}
	if res.CompulsoryMisses != ref.CompulsoryMisses {
		t.Errorf("compulsory: model %d, reference %d", res.CompulsoryMisses, ref.CompulsoryMisses)
	}
	for i := range cfg.CacheSizes {
		if res.Levels[i].TotalMisses != ref.TotalMisses[i] {
			t.Errorf("L%d misses: model %d, reference %d", i+1, res.Levels[i].TotalMisses, ref.TotalMisses[i])
		}
	}

	// One-shot Analyze on the same program must agree too (it is the same
	// pipeline; this guards the wiring of the two-phase API).
	full, err := core.Analyze(tiled, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfg.CacheSizes {
		if res.Levels[i].TotalMisses != full.Levels[i].TotalMisses {
			t.Errorf("L%d misses: two-phase %d, Analyze %d", i+1, res.Levels[i].TotalMisses, full.Levels[i].TotalMisses)
		}
	}

	s := res.Stats
	if s.PeakBasicMaps <= 0 || s.PeakBasicMaps > 400 {
		t.Errorf("peak basic maps out of the expected range: %d", s.PeakBasicMaps)
	}
	if s.CoalesceAdjacent == 0 || s.CoalesceRedundantCons == 0 || s.CoalesceDedup == 0 {
		t.Errorf("coalescing counters do not show the mechanism: %+v",
			core.Stats{CoalesceDedup: s.CoalesceDedup, CoalesceSubsumed: s.CoalesceSubsumed,
				CoalesceAdjacent: s.CoalesceAdjacent, CoalesceRedundantCons: s.CoalesceRedundantCons})
	}
	if s.BasicMapsBeforeCoalesce <= s.BasicMapsAfterCoalesce {
		t.Errorf("coalescing did not shrink the frontiers: %d -> %d",
			s.BasicMapsBeforeCoalesce, s.BasicMapsAfterCoalesce)
	}
}
