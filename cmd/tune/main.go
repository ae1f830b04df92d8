// Command tune sweeps a design-space grid — PolyBench kernels × tile sizes
// × cache hierarchies — with the analytical cache model and reports the
// best configuration per kernel. The stack distance model of every tiled
// program variant is computed exactly once and shared across all
// hierarchies of the grid (the two-phase ComputeDistances/CountMisses API),
// which is what makes interactive sweeps feasible where a trace-driven
// simulator would take days.
//
// Usage:
//
//	tune -kernels gemm,atax -size SMALL -tiles 1,16,32 \
//	     -hierarchies "32768,1048576;16384,262144" -objective l1 -format text
//
// Hierarchies are separated by semicolons; the comma-separated values of
// one hierarchy are the per-level capacities in bytes, innermost first. A
// level spelled size/ways (e.g. 32768/8) models a set-associative cache of
// that associativity; a bare size stays fully associative.
// Output formats: text (aligned tables), csv, json.
//
// Every variant, tiled or not, runs the fully symbolic,
// problem-size-independent pipeline by default (-mode auto): the coalescing
// layer of the Presburger engine keeps the deep tiled nests tractable, so
// symbolic tiled sweeps finish in seconds per variant. Pass -mode sim to
// build every model from an exact trace profile instead — equally exact and
// still shared across all hierarchies, but with cost proportional to the
// trace length (it can win for small problem sizes).
//
// The flags fill one core.Options for explore.Sweep: -mode, -budget and
// -deadline govern every grid point, and -parallelism sizes the one worker
// pool that the distance and counting phases of all grid points share.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"haystack/internal/core"
	"haystack/internal/explore"
	"haystack/internal/polybench"
	"haystack/internal/report"
)

func main() {
	kernels := flag.String("kernels", "gemm", "comma separated PolyBench kernel names (see -list)")
	size := flag.String("size", "SMALL", "problem size: MINI, SMALL, MEDIUM, LARGE, EXTRALARGE")
	tiles := flag.String("tiles", "1,16,32", "comma separated tile sizes (1 = untiled)")
	line := flag.Int64("line", 64, "cache line size in bytes (shared by all hierarchies)")
	hierarchies := flag.String("hierarchies", "16384;32768,1048576;65536,4194304",
		"semicolon separated cache hierarchies, each a comma separated list of per-level capacities in bytes; a level spelled size/ways (e.g. 32768/8) is set-associative")
	objective := flag.String("objective", "l1", "ranking objective: l1, llc, or total")
	format := flag.String("format", "text", "output format: text, csv, or json")
	parallelism := flag.Int("parallelism", 0, "worker goroutines of the sweep's configuration pool (0 = all cores)")
	mode := flag.String("mode", "auto", "degradation ladder rung of every grid point: auto (exact symbolic, else exact trace profiling), exact (exact symbolic or fail), bounded (certified interval bounds on degraded operations), sim (exact trace profiling for all variants)")
	budgetFlag := flag.Int64("budget", 0, "per-operation symbolic cost limit in cost units (0 = unlimited)")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline for the whole sweep (e.g. 2m; 0 = none)")
	stats := flag.Bool("stats", true, "print sweep statistics (text format only)")
	list := flag.Bool("list", false, "list available kernels and exit")
	flag.Parse()

	if *list {
		for _, k := range polybench.Kernels() {
			fmt.Printf("%-16s (%s)\n", k.Name, k.Category)
		}
		return
	}
	obj, err := explore.ParseObjective(*objective)
	if err != nil {
		log.Fatal(err)
	}
	sz, err := polybench.ParseSize(*size)
	if err != nil {
		log.Fatal(err)
	}
	grid, err := buildGrid(*kernels, sz, *tiles, *line, *hierarchies)
	if err != nil {
		log.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Parallelism = *parallelism
	if opts.Mode, err = core.ParseMode(*mode); err != nil {
		log.Fatal(err)
	}
	opts.Budget = *budgetFlag

	// The deadline covers the whole sweep, not each analysis.
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	res, err := explore.Sweep(ctx, grid, opts)
	if err != nil {
		log.Fatalf("sweep failed: %v", err)
	}

	gridTable := gridTable(res, obj)
	bestTable := bestTable(res, obj)
	switch strings.ToLower(*format) {
	case "text":
		gridTable.Write(os.Stdout)
		fmt.Println()
		bestTable.Write(os.Stdout)
		if *stats {
			s := res.Stats
			fmt.Printf("\nsweep: %d kernels, %d variants, %d evaluations\n",
				s.Kernels, s.Variants, s.Evaluations)
			fmt.Printf("stack distances computed %d times (once per variant and line size), %v\n",
				s.DistanceComputations, s.DistancePhase.Round(1e6))
			fmt.Printf("miss counting across the grid: %v (%d passes)   total: %v\n",
				s.CountPhase.Round(1e6), s.CountingPasses, s.TotalTime.Round(1e6))
		}
	case "csv":
		gridTable.WriteCSV(os.Stdout)
		fmt.Println()
		bestTable.WriteCSV(os.Stdout)
	case "json":
		doc := struct {
			Grid  interface{} `json:"grid"`
			Best  interface{} `json:"best"`
			Stats struct {
				Kernels              int `json:"kernels"`
				Variants             int `json:"variants"`
				Evaluations          int `json:"evaluations"`
				DistanceComputations int `json:"distance_computations"`
				CountingPasses       int `json:"counting_passes"`
			} `json:"stats"`
		}{Grid: gridTable.JSONValue(), Best: bestTable.JSONValue()}
		doc.Stats.Kernels = res.Stats.Kernels
		doc.Stats.Variants = res.Stats.Variants
		doc.Stats.Evaluations = res.Stats.Evaluations
		doc.Stats.DistanceComputations = res.Stats.DistanceComputations
		doc.Stats.CountingPasses = res.Stats.CountingPasses
		if err := report.WriteJSON(os.Stdout, doc); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown format %q (want text, csv, or json)", *format)
	}
}

// buildGrid assembles the explore.Grid from the flag values.
func buildGrid(kernels string, sz polybench.Size, tiles string, line int64, hierarchies string) (explore.Grid, error) {
	var grid explore.Grid
	for _, name := range strings.Split(kernels, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, ok := polybench.ByName(name)
		if !ok {
			return grid, fmt.Errorf("unknown kernel %q (use -list to see the available kernels)", name)
		}
		grid.Kernels = append(grid.Kernels, explore.Kernel{Name: k.Name, Program: k.Build(sz)})
	}
	if len(grid.Kernels) == 0 {
		return grid, fmt.Errorf("no kernels selected")
	}
	for _, t := range strings.Split(tiles, ",") {
		t = strings.TrimSpace(t)
		if t == "" {
			continue
		}
		v, err := strconv.ParseInt(t, 10, 64)
		if err != nil {
			return grid, fmt.Errorf("invalid tile size %q: %v", t, err)
		}
		grid.TileSizes = append(grid.TileSizes, v)
	}
	for _, h := range strings.Split(hierarchies, ";") {
		h = strings.TrimSpace(h)
		if h == "" {
			continue
		}
		cfg := core.Config{LineSize: line}
		hasWays := false
		for _, c := range strings.Split(h, ",") {
			c = strings.TrimSpace(c)
			sizePart, waysPart, perLevel := strings.Cut(c, "/")
			v, err := strconv.ParseInt(strings.TrimSpace(sizePart), 10, 64)
			if err != nil {
				return grid, fmt.Errorf("invalid cache size %q in hierarchy %q: %v", c, h, err)
			}
			cfg.CacheSizes = append(cfg.CacheSizes, v)
			w := 0
			if perLevel {
				w, err = strconv.Atoi(strings.TrimSpace(waysPart))
				if err != nil {
					return grid, fmt.Errorf("invalid way count %q in hierarchy %q: %v", c, h, err)
				}
				hasWays = true
			}
			cfg.Ways = append(cfg.Ways, w)
		}
		// A hierarchy without any size/ways level keeps a nil Ways slice, so
		// the sweep is byte-identical to the pre-associativity grids.
		if !hasWays {
			cfg.Ways = nil
		}
		grid.Hierarchies = append(grid.Hierarchies, cfg)
	}
	return grid, nil
}

// gridTable renders every evaluated grid point as one row; per-level counts
// are slash separated, innermost level first.
func gridTable(res *explore.Result, obj explore.Objective) *report.Table {
	t := report.NewTable("design-space grid",
		"kernel", "tile", "caches", "accesses", "compulsory", "capacity", "misses", obj.String()+" score", "tier")
	for _, e := range res.Evaluations {
		var capacity, total []string
		for _, lvl := range e.Result.Levels {
			capacity = append(capacity, strconv.FormatInt(lvl.CapacityMisses, 10))
			total = append(total, strconv.FormatInt(lvl.TotalMisses, 10))
		}
		t.AddRow(e.Kernel, tileLabel(e), cachesLabel(e.Hierarchy),
			e.Result.TotalAccesses, e.Result.CompulsoryMisses,
			strings.Join(capacity, "/"), strings.Join(total, "/"),
			obj.Score(e), e.Result.Tier.String())
	}
	return t
}

// bestTable renders the winning configuration of every kernel. The last
// column normalizes the score by the access count: for the l1 and llc
// objectives that is the miss ratio of the scored level, for the total
// objective it is the average number of per-level misses each access causes
// (which can exceed one on multi-level hierarchies).
func bestTable(res *explore.Result, obj explore.Objective) *report.Table {
	t := report.NewTable("best configuration per kernel ("+obj.String()+")",
		"kernel", "tile", "caches", obj.String()+" score", "score/access")
	for _, b := range res.BestPerKernel(obj) {
		ratio := float64(b.Score) / float64(b.Evaluation.Result.TotalAccesses)
		t.AddRow(b.Kernel, tileLabel(b.Evaluation), cachesLabel(b.Evaluation.Hierarchy), b.Score, ratio)
	}
	return t
}

func tileLabel(e explore.Evaluation) string {
	if !e.Tiled {
		return "untiled"
	}
	return strconv.FormatInt(e.TileSize, 10)
}

func cachesLabel(cfg core.Config) string {
	parts := make([]string, len(cfg.CacheSizes))
	for i, s := range cfg.CacheSizes {
		parts[i] = strconv.FormatInt(s, 10)
		if w := cfg.WaysOf(i); w > 0 {
			parts[i] += "/" + strconv.Itoa(w)
		}
	}
	return strings.Join(parts, ":")
}
