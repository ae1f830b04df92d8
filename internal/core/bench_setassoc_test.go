package core

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"haystack/internal/polybench"
)

// setAssocBenchRun is one associativity measurement of the set-associative
// benchmark: the analytical wall time and the (simulator-verified) per-level
// miss counts for gemm MINI at that way count.
type setAssocBenchRun struct {
	Ways   int     `json:"ways"`
	Sets   []int64 `json:"sets"`
	WallMS float64 `json:"wall_ms"`
	Misses []int64 `json:"misses"`
}

// setAssocBenchReport is the BENCH_7.json schema: per-ways wall times of the
// set-associative analytical pipeline over a fixed two-level hierarchy, with
// the fully associative run as the zero-ways baseline.
type setAssocBenchReport struct {
	Bench      string             `json:"bench"`
	Date       string             `json:"date"`
	GoVersion  string             `json:"go"`
	CPUs       int                `json:"cpus"`
	Kernel     string             `json:"kernel"`
	Size       string             `json:"size"`
	LineSize   int64              `json:"line_size"`
	CacheSizes []int64            `json:"cache_sizes"`
	Runs       []setAssocBenchRun `json:"runs"`
}

// TestSetAssocBenchmark sweeps gemm MINI across associativities 1, 2, 4,
// and 8 (plus the fully associative baseline at ways 0) on a 512 B + 2 KiB
// hierarchy, verifying every run against the reference simulation and
// recording the per-ways analytical wall times. When HAYSTACK_BENCH_SETASSOC
// names a file the measurements are written there as JSON (the BENCH_7.json
// CI artifact); without the variable the test is skipped, keeping the
// default suite fast. Lower associativity means more sets (8/w in L1, 32/w
// in L2), so the sweep charts how the per-set fan-out scales.
func TestSetAssocBenchmark(t *testing.T) {
	out := os.Getenv("HAYSTACK_BENCH_SETASSOC")
	if out == "" {
		t.Skip("set HAYSTACK_BENCH_SETASSOC=<file> to run the set-associative benchmark")
	}

	k, ok := polybench.ByName("gemm")
	if !ok {
		t.Fatal("gemm kernel not registered")
	}
	prog := k.Build(polybench.Mini)
	report := setAssocBenchReport{
		Bench:      "polybench_gemm_mini_setassoc",
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		Kernel:     "gemm",
		Size:       "MINI",
		LineSize:   64,
		CacheSizes: []int64{512, 2048},
	}
	opts := DefaultOptions()
	opts.Mode = ModeExact
	for _, ways := range []int{0, 1, 2, 4, 8} {
		cfg := Config{LineSize: report.LineSize, CacheSizes: report.CacheSizes}
		if ways > 0 {
			cfg.Ways = []int{ways, ways}
		}
		start := time.Now()
		res, err := Analyze(prog, cfg, opts)
		wall := time.Since(start)
		if err != nil {
			t.Fatalf("ways %d: %v", ways, err)
		}
		ref, err := SimulateSetAssocReference(prog, cfg)
		if err != nil {
			t.Fatalf("ways %d reference: %v", ways, err)
		}
		run := setAssocBenchRun{Ways: ways, WallMS: float64(wall) / float64(time.Millisecond)}
		for i, lvl := range res.Levels {
			if lvl.TotalMisses != ref.TotalMisses[i] {
				t.Fatalf("ways %d L%d: model %d misses, reference %d", ways, i+1, lvl.TotalMisses, ref.TotalMisses[i])
			}
			run.Misses = append(run.Misses, lvl.TotalMisses)
			sets, _, err := cfg.LevelGeometry(i)
			if err != nil {
				t.Fatalf("ways %d L%d geometry: %v", ways, i+1, err)
			}
			run.Sets = append(run.Sets, sets)
		}
		report.Runs = append(report.Runs, run)
		t.Logf("ways %d: %v, sets %v, misses %v", ways, wall.Round(time.Millisecond), run.Sets, run.Misses)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s with %d runs\n", out, len(report.Runs))
}
