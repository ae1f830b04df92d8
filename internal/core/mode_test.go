package core

import (
	"reflect"
	"testing"

	"haystack/internal/polybench"
)

// TestParseModeRoundTrip: every rung of the ladder parses back from its
// String form, and unknown names are rejected.
func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeExact, ModeAuto, ModeBounded, ModeSim} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if got, err := ParseMode("auto"); err != nil || got != ModeAuto {
		t.Errorf("ParseMode(\"auto\") = %v, %v; want %v", got, err, ModeAuto)
	}
	if _, err := ParseMode("fallback"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
	if DefaultOptions().Mode != ModeAuto {
		t.Errorf("DefaultOptions selects %v, want %v", DefaultOptions().Mode, ModeAuto)
	}
}

// TestModeSimResolvedByDistancePhase: ModeSim is a property of the options,
// not of the entry point. ComputeDistances itself must answer it from the
// trace profile, so the two-phase API and Analyze agree on a fully
// associative, a set-associative and a mixed hierarchy, and every level
// matches the trace replayed through the simulator (SimulateSetAssocReference
// does not share the trace tier's choice of levels to replay).
func TestModeSimResolvedByDistancePhase(t *testing.T) {
	prog := gemm(12)
	opts := DefaultOptions()
	opts.Mode = ModeSim
	dm, err := ComputeDistances(prog, 64, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !dm.UsedTraceFallback() {
		t.Fatal("ModeSim distance model did not come from the trace profile")
	}
	for _, cfg := range []Config{
		{LineSize: 64, CacheSizes: []int64{512, 2048}},
		{LineSize: 64, CacheSizes: []int64{512, 2048}, Ways: []int{4, 8}},
		// Mixed hierarchies: the trace tier replays only the set-associative
		// level. At this size a 4-way L1 misses like a fully associative
		// one; the 2-way L1 and the 4-way L2 do not, so a level answered
		// from the wrong source shows.
		{LineSize: 64, CacheSizes: []int64{512, 2048}, Ways: []int{4, 0}},
		{LineSize: 64, CacheSizes: []int64{512, 2048}, Ways: []int{2, 0}},
		{LineSize: 64, CacheSizes: []int64{512, 2048}, Ways: []int{0, 4}},
	} {
		got, err := dm.CountMisses(cfg)
		if err != nil {
			t.Fatalf("ways %v: CountMisses: %v", cfg.Ways, err)
		}
		if got.Tier != TierSimulated || !got.UsedTraceFallback {
			t.Errorf("ways %v: tier %s (fallback %v), want %s", cfg.Ways, got.Tier, got.UsedTraceFallback, TierSimulated)
		}
		want, err := Analyze(prog, cfg, opts)
		if err != nil {
			t.Fatalf("ways %v: Analyze: %v", cfg.Ways, err)
		}
		if got.TotalAccesses != want.TotalAccesses || got.CompulsoryMisses != want.CompulsoryMisses ||
			!reflect.DeepEqual(got.Levels, want.Levels) {
			t.Errorf("ways %v: two-phase result %+v differs from Analyze %+v", cfg.Ways, got.Levels, want.Levels)
		}
		ref, err := SimulateSetAssocReference(prog, cfg)
		if err != nil {
			t.Fatalf("ways %v: SimulateSetAssocReference: %v", cfg.Ways, err)
		}
		if got.TotalAccesses != ref.TotalAccesses || got.CompulsoryMisses != ref.CompulsoryMisses {
			t.Errorf("ways %v: accesses/compulsory %d/%d, simulator %d/%d", cfg.Ways,
				got.TotalAccesses, got.CompulsoryMisses, ref.TotalAccesses, ref.CompulsoryMisses)
		}
		for i, l := range got.Levels {
			if l.TotalMisses != ref.TotalMisses[i] {
				t.Errorf("ways %v: L%d total misses %d, simulator %d", cfg.Ways, i+1, l.TotalMisses, ref.TotalMisses[i])
			}
		}
	}
}

// TestModeSimRejectedByParametricModel: a parametric program has no trace,
// so ModeSim cannot be honoured and must fail instead of quietly running
// the symbolic pipeline.
func TestModeSimRejectedByParametricModel(t *testing.T) {
	pk, ok := polybench.ParametricByName("gemm")
	if !ok {
		t.Fatal("parametric gemm not registered")
	}
	opts := DefaultOptions()
	opts.Mode = ModeSim
	if _, err := ComputeParametricModel(pk.Build(), 64, opts); err == nil {
		t.Fatal("ComputeParametricModel accepted ModeSim")
	}
}

// TestModeExactIsStrictModeAutoFallsBack: adi's previous-access lexmax
// leaves the supported fragment. ModeExact (the zero value) must fail
// loudly; ModeAuto must answer exactly from the trace profile.
func TestModeExactIsStrictModeAutoFallsBack(t *testing.T) {
	reportBudget(t)
	requireBudget(t, 3*miniEstimate("adi"))
	k, ok := polybench.ByName("adi")
	if !ok {
		t.Fatal("adi kernel not registered")
	}
	prog := k.Build(polybench.Mini)
	cfg := DefaultConfig()
	opts := DefaultOptions()
	opts.Mode = ModeExact
	if res, err := Analyze(prog, cfg, opts); err == nil {
		t.Fatalf("ModeExact answered adi (tier %s) instead of failing", res.Tier)
	}
	opts.Mode = ModeAuto
	res, err := Analyze(prog, cfg, opts)
	if err != nil {
		t.Fatalf("ModeAuto: %v", err)
	}
	if res.Tier != TierSimulated || !res.UsedTraceFallback || res.FallbackReason == "" {
		t.Errorf("ModeAuto: tier %s, fallback %v (%q); want %s with provenance", res.Tier, res.UsedTraceFallback, res.FallbackReason, TierSimulated)
	}
	ref, err := SimulateReference(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for l, lvl := range res.Levels {
		if lvl.TotalMisses != ref.TotalMisses[l] {
			t.Errorf("L%d: %d misses, reference %d", l+1, lvl.TotalMisses, ref.TotalMisses[l])
		}
	}
}
