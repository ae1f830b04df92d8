package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"haystack/internal/cachesim"
	"haystack/internal/polybench"
	"haystack/internal/scop"
)

// symbolicOverBudget lists the kernels whose symbolic analysis does not
// terminate within any reasonable per-package test budget on a single core.
// It is empty: the domain-partitioned lexmin, the fan-out-minimizing
// summation order of the counting engine, and the context simplification
// (gist) closed the last seven holdouts (the triangular solvers and the 3-D
// stencil). TestSymbolicCoverageComplete fails the build if an entry ever
// reappears, so a symbolic regression cannot silently hide behind a skip.
var symbolicOverBudget = map[string]bool{}

// symbolicMiniSeconds holds measured single-core Analyze durations at MINI
// (dev reference box), used as budget estimates so the suite degrades
// gracefully under small -timeout values instead of blowing the per-package
// deadline. Unlisted kernels default to 30 seconds.
var symbolicMiniSeconds = map[string]float64{
	"2mm": 1, "3mm": 1, "adi": 1, "atax": 1, "bicg": 1, "cholesky": 11,
	"correlation": 4, "covariance": 2, "deriche": 1, "doitgen": 3,
	"durbin": 2, "fdtd-2d": 3, "floyd-warshall": 9, "gemm": 1,
	"gemver": 1, "gesummv": 1, "gramschmidt": 1, "heat-3d": 18,
	"jacobi-1d": 1, "jacobi-2d": 4, "lu": 7, "ludcmp": 12, "mvt": 1,
	"nussinov": 6, "seidel-2d": 6, "symm": 3, "syr2k": 1, "syrk": 1,
	"trisolv": 1, "trmm": 1,
}

func miniEstimate(name string) time.Duration {
	if s, ok := symbolicMiniSeconds[name]; ok {
		return time.Duration(s * float64(time.Second))
	}
	return 30 * time.Second
}

// budgetSlack is the safety margin kept unspent when comparing an estimate
// against the remaining -timeout budget.
const budgetSlack = 30 * time.Second

// budgetAllows decides whether a test that needs roughly `need` of wall
// clock may start, given the binary's deadline as reported by t.Deadline().
// A test binary without a deadline (-timeout 0, or a caller that disabled
// it) grants every request — no budget means nothing to degrade against.
// The deadline arithmetic itself lives in timeAllows; this adapter reports
// the pre-step remaining budget for the skip message.
func budgetAllows(need time.Duration, deadline time.Time, hasDeadline bool, now time.Time) (time.Duration, bool) {
	left, ok := timeAllows(need, deadline, hasDeadline, now, budgetSlack)
	if !hasDeadline {
		return 0, ok
	}
	return left + need, ok
}

// requireBudget skips the calling (sub)test when the remaining -timeout
// budget of the test binary is smaller than the estimated need. The
// expensive conformance tiers size themselves to the budget: the default
// 10-minute timeout covers the cheap tiers, the weekly CI full sweep runs
// with a multi-hour timeout and executes everything. Without -timeout there
// is no deadline and nothing is skipped. Every call is recorded against its
// top-level test, whose reportBudget summary lists the skips.
func requireBudget(t *testing.T, need time.Duration) {
	t.Helper()
	deadline, ok := t.Deadline()
	remaining, allowed := budgetAllows(need, deadline, ok, time.Now())
	tier, _, _ := strings.Cut(t.Name(), "/")
	budgetLedger.Lock()
	budgetLedger.checks[tier]++
	if !allowed {
		budgetLedger.skipped[tier] = append(budgetLedger.skipped[tier], t.Name())
	}
	budgetLedger.Unlock()
	if !allowed {
		t.Skipf("needs ~%v but only %v of the -timeout budget remains; raise -timeout to run (the weekly CI full sweep does)",
			need.Round(time.Second), remaining.Round(time.Second))
	}
}

// budgetLedger holds, per top-level test, the number of requireBudget checks
// and the names of the (sub)tests they skipped.
var budgetLedger = struct {
	sync.Mutex
	checks  map[string]int
	skipped map[string][]string
}{checks: map[string]int{}, skipped: map[string][]string{}}

// reportBudget makes the tier test t log, once it and its subtests have
// ended, how many of its requireBudget checks ran and which were skipped on
// budget, so a tier that covered less than it claims says so.
func reportBudget(t *testing.T) {
	tier := t.Name()
	budgetLedger.Lock()
	delete(budgetLedger.checks, tier)
	delete(budgetLedger.skipped, tier)
	budgetLedger.Unlock()
	t.Cleanup(func() {
		budgetLedger.Lock()
		defer budgetLedger.Unlock()
		skipped := slices.Sorted(slices.Values(budgetLedger.skipped[tier]))
		n := budgetLedger.checks[tier]
		t.Logf("checked %d/%d, skipped on budget: %v", n-len(skipped), n, skipped)
	})
}

// TestSymbolicCoverageComplete is the regression guard for the headline
// coverage claim: every registered PolyBench kernel must run the symbolic
// tier. Growing symbolicOverBudget again — skipping a kernel — fails the
// build instead of quietly shrinking coverage.
func TestSymbolicCoverageComplete(t *testing.T) {
	if len(symbolicOverBudget) != 0 {
		names := make([]string, 0, len(symbolicOverBudget))
		for name := range symbolicOverBudget {
			names = append(names, name)
		}
		t.Fatalf("symbolicOverBudget must stay empty (30/30 symbolic coverage); found %v", names)
	}
}

// traceFallbackAllowed lists the kernels whose symbolic pipeline is known
// to leave the supported fragment and answer from the exact trace profile
// instead (results stay exact). Only adi does: its lexmin hits a projection
// the fragment cannot express. Every other kernel asserting fallback is a
// symbolic regression — counts would still match the reference, so without
// this assertion the 30/30 symbolic coverage claim could silently void.
var traceFallbackAllowed = map[string]bool{"adi": true}

// conformanceCheck runs Analyze on the kernel at the size and requires
// bit-identical counts against the exact reference simulation.
func conformanceCheck(t *testing.T, k polybench.Kernel, sz polybench.Size, cfg Config) {
	t.Helper()
	prog := k.Build(sz)
	res, err := Analyze(prog, cfg, DefaultOptions())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	ref, err := SimulateReference(prog, cfg)
	if err != nil {
		t.Fatalf("SimulateReference: %v", err)
	}
	if res.UsedTraceFallback {
		if !traceFallbackAllowed[k.Name] {
			t.Errorf("symbolic pipeline regressed to trace fallback: %s", res.FallbackReason)
		} else {
			t.Logf("symbolic pipeline fell back to trace profiling: %s", res.FallbackReason)
		}
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

// TestPolyBenchConformance cross-checks the analytical model against the
// exact reference simulation for every registered PolyBench kernel: total
// accesses, compulsory misses, and the total misses of every cache level of
// the default hierarchy (fully associative LRU, the configuration the model
// is defined for) must be bit-identical.
//
// Tiers: MINI for every kernel; without -short the sweep extends to SMALL.
// Kernels in symbolicOverBudget are skipped with an explicit reason (they
// are covered by TestSimulatorConformance instead), and each subtest first
// checks the remaining -timeout budget so the suite adapts to the
// environment instead of dying at the per-package deadline.
func TestPolyBenchConformance(t *testing.T) {
	reportBudget(t)
	cfg := DefaultConfig()
	sizes := []polybench.Size{polybench.Mini}
	if !testing.Short() {
		sizes = append(sizes, polybench.Small)
	}
	for _, sz := range sizes {
		for _, k := range polybench.Kernels() {
			k, sz := k, sz
			t.Run(fmt.Sprintf("%s/%s", k.Name, sz), func(t *testing.T) {
				if symbolicOverBudget[k.Name] {
					t.Skipf("symbolic analysis of %s exceeds the test budget; covered by TestSimulatorConformance", k.Name)
				}
				// The 3x headroom keeps the suite safe under the race
				// detector's slowdown. SMALL costs a small multiple of MINI
				// (measured 1.3x-2.7x for the slower kernels, 5x for adi's
				// trace fallback); 10x keeps about 3x headroom on that.
				est := 3 * miniEstimate(k.Name)
				if sz == polybench.Small {
					est = 10 * miniEstimate(k.Name)
				}
				requireBudget(t, est)
				conformanceCheck(t, k, sz, cfg)
			})
		}
	}
}

// TestSimulatorConformance cross-validates the two independent exact
// engines on every registered kernel: the stack distance profiler behind
// SimulateReference and the set-based trace-driven simulator
// (internal/cachesim) configured as a fully associative LRU cache over the
// same padded layout must report identical miss counts per capacity. This
// tier is cheap (trace replay), so it covers all kernels — including the
// ones whose symbolic analysis is still out of budget.
func TestSimulatorConformance(t *testing.T) {
	reportBudget(t)
	cfg := DefaultConfig()
	sizes := []polybench.Size{polybench.Mini}
	if !testing.Short() {
		sizes = append(sizes, polybench.Small)
	}
	for _, sz := range sizes {
		for _, k := range polybench.Kernels() {
			k, sz := k, sz
			t.Run(fmt.Sprintf("%s/%s", k.Name, sz), func(t *testing.T) {
				requireBudget(t, 20*time.Second)
				prog := k.Build(sz)
				ref, err := SimulateReference(prog, cfg)
				if err != nil {
					t.Fatalf("SimulateReference: %v", err)
				}
				layout := scop.NewLayout(prog, scop.LayoutPadded, cfg.LineSize)
				cp, err := scop.Compile(prog, layout)
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				for l, size := range cfg.CacheSizes {
					// One fully associative LRU level observing the full
					// stream, matching the model's per-level semantics.
					simRes, err := cachesim.Simulate(cp, cachesim.Config{
						LineSize: cfg.LineSize,
						Levels:   []cachesim.LevelConfig{{Name: "L", SizeBytes: size, Ways: 0, Policy: cachesim.LRU}},
					})
					if err != nil {
						t.Fatalf("Simulate: %v", err)
					}
					if simRes.TotalAccesses != ref.TotalAccesses {
						t.Errorf("L%d: simulator saw %d accesses, profiler %d", l+1, simRes.TotalAccesses, ref.TotalAccesses)
					}
					if simRes.Levels[0].Misses != ref.TotalMisses[l] {
						t.Errorf("L%d: simulator misses %d, profiler %d", l+1, simRes.Levels[0].Misses, ref.TotalMisses[l])
					}
					if simRes.Levels[0].Compulsory != ref.CompulsoryMisses {
						t.Errorf("L%d: simulator compulsory %d, profiler %d", l+1, simRes.Levels[0].Compulsory, ref.CompulsoryMisses)
					}
				}
			})
		}
	}
}

// timeAllows decides whether a step estimated to need `need` wall time fits
// before a deadline, keeping `slack` in reserve for cleanup. It returns the
// remaining time after the step and whether the step fits. With no deadline
// every step fits. It is a pure function of its inputs so tests can cover
// the branches without real clocks.
func timeAllows(need time.Duration, deadline time.Time, hasDeadline bool, now time.Time, slack time.Duration) (time.Duration, bool) {
	if !hasDeadline {
		return 0, true
	}
	remaining := deadline.Sub(now) - slack
	return remaining - need, remaining >= need
}
