// Command haystack analyzes a PolyBench kernel with the analytical cache
// model and prints the predicted compulsory and capacity misses per cache
// level, together with the model statistics (execution time split and number
// of counted pieces).
//
// Usage:
//
//	haystack -kernel gemm -size MEDIUM -line 64 -caches 32768,1048576
//
// With -params the kernel is analyzed parametrically (one symbolic analysis
// for all problem sizes, core.ComputeParametricModel) and evaluated at the
// given parameter values:
//
//	haystack -kernel gemm -params NI=1000,NJ=1100,NK=1200
//
// The analysis verifies the program first and rejects an invalid one;
// cmd/scopcheck prints the verifier's findings, warnings included.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"haystack/internal/core"
	"haystack/internal/polybench"
	"haystack/internal/report"
)

func main() {
	kernel := flag.String("kernel", "gemm", "PolyBench kernel name (see -list)")
	size := flag.String("size", "MEDIUM", "problem size: MINI, SMALL, MEDIUM, LARGE, EXTRALARGE")
	params := flag.String("params", "", "comma separated parameter bindings (e.g. NI=1000,NJ=1100,NK=1200); selects the parametric model, ignoring -size")
	line := flag.Int64("line", 64, "cache line size in bytes")
	caches := flag.String("caches", "32768,1048576", "comma separated cache capacities in bytes")
	ways := flag.String("ways", "", "comma separated associativity per cache level (0 = fully associative); e.g. 8,16 models a set-associative hierarchy")
	list := flag.Bool("list", false, "list available kernels and exit")
	noEqualization := flag.Bool("no-equalization", false, "disable the equalization floor elimination")
	noRasterization := flag.Bool("no-rasterization", false, "disable the rasterization floor elimination")
	noPartial := flag.Bool("no-partial-enumeration", false, "disable partial enumeration of non-affine pieces")
	parallelism := flag.Int("parallelism", 0, "worker goroutines for the analysis (stack distances and capacity miss counting; 0 = all cores)")
	mode := flag.String("mode", "auto", "degradation ladder rung: auto (exact symbolic, else exact trace profiling), exact (exact symbolic or fail), bounded (answer with certified interval bounds), sim (exact trace profiling, no symbolic analysis)")
	budgetFlag := flag.Int64("budget", 0, "per-operation symbolic cost limit in cost units (0 = unlimited); an operation over budget fails in exact mode, falls back to trace profiling in auto mode, and degrades to certified bounds in bounded mode")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline for the whole analysis (e.g. 30s; 0 = none)")
	stats := flag.Bool("stats", false, "print extended statistics (coalescing counters, basic-map counts, budget use, and degradation provenance)")
	flag.Parse()

	if *list {
		parametric := map[string]bool{}
		for _, name := range polybench.ParametricNames() {
			parametric[name] = true
		}
		for _, k := range polybench.Kernels() {
			suffix := ""
			if parametric[k.Name] {
				suffix = ", parametric"
			}
			fmt.Printf("%-16s (%s%s)\n", k.Name, k.Category, suffix)
		}
		return
	}
	cfg := core.Config{LineSize: *line}
	for _, c := range strings.Split(*caches, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(c), 10, 64)
		if err != nil {
			log.Fatalf("invalid cache size %q: %v", c, err)
		}
		cfg.CacheSizes = append(cfg.CacheSizes, v)
	}
	if *ways != "" {
		for _, w := range strings.Split(*ways, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(w))
			if err != nil {
				log.Fatalf("invalid way count %q: %v", w, err)
			}
			cfg.Ways = append(cfg.Ways, v)
		}
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Equalization = !*noEqualization
	opts.Rasterization = !*noRasterization
	opts.PartialEnumeration = !*noPartial
	opts.Parallelism = *parallelism
	m, err := core.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	opts.Mode = m
	opts.Budget = *budgetFlag

	// The deadline covers the whole analysis: both the model construction
	// and the miss counting observe the one context.
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	var res *core.Result
	var caption string
	if *params != "" {
		pk, ok := polybench.ParametricByName(*kernel)
		if !ok {
			log.Fatalf("kernel %q has no parametric variant (available: %s)", *kernel, strings.Join(polybench.ParametricNames(), ", "))
		}
		bindings, err := parseBindings(*params)
		if err != nil {
			log.Fatal(err)
		}
		prog := pk.Build()
		// Validate the bindings before the expensive symbolic analysis: a
		// typo in -params should fail in microseconds, not after minutes of
		// model construction.
		if err := prog.CheckBindings(bindings); err != nil {
			log.Fatal(err)
		}
		pm, err := core.ComputeParametricModelContext(ctx, prog, cfg.LineSize, opts)
		if err != nil {
			log.Fatalf("parametric analysis failed: %v", err)
		}
		res, err = pm.Eval(cfg, bindings)
		if err != nil {
			log.Fatalf("evaluating the parametric model: %v", err)
		}
		caption = fmt.Sprintf("kernel %s at %s (parametric model: %d pieces, %d parametric, %d residual; built in %v, reusable for any size)",
			pk.Name, *params, pm.DistancePieces(), pm.ParametricPieces(), pm.ResidualPieces(), pm.ComputeTime().Round(1e6))
	} else {
		k, ok := polybench.ByName(*kernel)
		if !ok {
			log.Fatalf("unknown kernel %q (use -list to see the available kernels)", *kernel)
		}
		sz, err := polybench.ParseSize(*size)
		if err != nil {
			log.Fatal(err)
		}
		res, err = core.AnalyzeContext(ctx, k.Build(sz), cfg, opts)
		if err != nil {
			log.Fatalf("analysis failed: %v", err)
		}
		caption = fmt.Sprintf("kernel %s (%s)", k.Name, sz)
	}

	fmt.Printf("%s, %d memory accesses\n", caption, res.TotalAccesses)
	if res.UsedTraceFallback {
		fmt.Printf("note: symbolic analysis fell back to trace profiling (%s)\n", res.FallbackReason)
	}
	if res.Tier == core.TierBounded {
		fmt.Printf("note: bounded tier — point values are certified upper bounds (%s)\n", res.FallbackReason)
	}
	t := report.NewTable("predicted cache behaviour", "cache", "bytes", "ways", "compulsory", "capacity", "misses", "miss ratio")
	for i, lvl := range res.Levels {
		ratio := float64(lvl.TotalMisses) / float64(res.TotalAccesses)
		waysLabel := "full"
		if w := cfg.WaysOf(i); w > 0 {
			waysLabel = strconv.Itoa(w)
		}
		t.AddRow(fmt.Sprintf("L%d", i+1), lvl.CacheBytes, waysLabel, res.CompulsoryMisses, lvl.CapacityMisses, lvl.TotalMisses, ratio)
	}
	t.Write(os.Stdout)

	for _, sa := range res.Stats.SetAssoc {
		total := 0
		for _, p := range sa.SetPieces {
			total += p
		}
		fmt.Printf("L%d set-associative: %d sets of %d ways, %d per-set distance pieces\n",
			sa.Level+1, sa.Sets, sa.Ways, total)
	}

	if res.Tier == core.TierBounded {
		fmt.Printf("\ncertified bounds: compulsory in %v\n", res.CompulsoryBounds)
		for i, lvl := range res.Levels {
			fmt.Printf("L%d: capacity misses in %v, total misses in %v (width %d)\n",
				i+1, lvl.CapacityMissBounds, lvl.TotalMissBounds, lvl.TotalMissBounds.Width())
		}
	}

	fmt.Printf("\nstack distances: %v   capacity counting: %v   total: %v\n",
		res.Stats.StackDistanceTime.Round(1e6), res.Stats.CapacityTime.Round(1e6), res.Stats.TotalTime.Round(1e6))
	fmt.Printf("pieces: %d distance, %d counted (%d affine, %d non-affine)\n",
		res.Stats.DistancePieces, res.Stats.CountedPieces, res.Stats.AffinePieces, res.Stats.NonAffinePieces)
	if res.Stats.CapacityWorkers > 0 {
		var busy time.Duration
		for _, t := range res.Stats.CapacityWorkerTime {
			busy += t
		}
		fmt.Printf("capacity counting workers: %d, total busy time %v\n",
			res.Stats.CapacityWorkers, busy.Round(1e6))
	}
	if *stats {
		s := res.Stats
		fmt.Printf("coalescing: peak %d basic maps at the composition frontiers (%d entering -> %d leaving)\n",
			s.PeakBasicMaps, s.BasicMapsBeforeCoalesce, s.BasicMapsAfterCoalesce)
		fmt.Printf("coalescing hits: %d dedup, %d subsumed, %d adjacent/extension merges, %d redundant constraints dropped\n",
			s.CoalesceDedup, s.CoalesceSubsumed, s.CoalesceAdjacent, s.CoalesceRedundantCons)
		fmt.Printf("scheduling: %d steals, %d splits   coefficient arena: %d hits, %d misses\n",
			s.Steals, s.Splits, s.ArenaHits, s.ArenaMisses)
		fmt.Printf("tier: %s   budget charged: %d cost units (per-operation limit %d)\n", res.Tier, s.BudgetUsed, opts.Budget)
		if len(s.BoundWidth) > 0 {
			fmt.Printf("bound widths per level: %v (0 = exact)\n", s.BoundWidth)
		}
		if res.FallbackReason != "" {
			fmt.Printf("degradation provenance: %s\n", res.FallbackReason)
		}
	}
}

// parseBindings parses "NAME=value,NAME=value" parameter bindings.
func parseBindings(s string) (map[string]int64, error) {
	out := map[string]int64{}
	for _, part := range strings.Split(s, ",") {
		name, value, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("invalid parameter binding %q (want NAME=value)", part)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(value), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid value in parameter binding %q: %v", part, err)
		}
		out[strings.TrimSpace(name)] = v
	}
	return out, nil
}
