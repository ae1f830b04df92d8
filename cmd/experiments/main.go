// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Every figure/table has a subcommand that prints the
// corresponding rows or series as an aligned text table (add -csv for CSV
// output suitable for plotting).
//
//	experiments fig1    scaling of the model vs simulation over problem sizes
//	experiments fig9    model accuracy vs the detailed ("measured") simulation
//	experiments fig10   Dinero-style simulation accuracy vs the same reference
//	experiments fig11   model execution time split and number of pieces
//	experiments fig12   model execution time for MEDIUM/LARGE/EXTRALARGE
//	experiments fig13   model execution time for 1, 2, and 3 cache levels
//	experiments fig14   speedup of equalization, rasterization, partial enumeration
//	experiments fig15a  measured comparison against the per-set (PolyCache-style) model
//	experiments fig15b  speedup of the model over trace-driven simulation
//	experiments fig16   model execution time for tiled kernels (tile size 16)
//	experiments table1  non-affine stack distance polynomials by affine dimensions
//
// The defaults use a subset of kernels and the SMALL problem size so that a
// run completes in minutes; -kernels all -size LARGE reproduces the paper's
// configuration.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"haystack/internal/cachesim"
	"haystack/internal/core"
	"haystack/internal/polybench"
	"haystack/internal/report"
	"haystack/internal/reusedist"
	"haystack/internal/scop"
	"haystack/internal/tiling"
)

// options shared by all experiments.
type options struct {
	kernels []polybench.Kernel
	size    polybench.Size
	csv     bool
	line    int64
	l1, l2  int64
	l3      int64
	sets    int64
	par     int
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	kernels := fs.String("kernels", "gemm,atax,bicg,mvt,gesummv,trisolv,jacobi-1d", "comma separated kernel names or 'all'")
	size := fs.String("size", "SMALL", "PolyBench problem size")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	line := fs.Int64("line", 64, "cache line size in bytes")
	l1 := fs.Int64("l1", 32*1024, "L1 capacity in bytes")
	l2 := fs.Int64("l2", 1024*1024, "L2 capacity in bytes")
	l3 := fs.Int64("l3", 25344*1024, "L3 capacity in bytes (fig13)")
	sets := fs.Int64("sets", 64, "number of L1 cache sets of the per-set model (fig15a); must divide the L1 line count")
	parallelism := fs.Int("parallelism", 0, "worker goroutines for the analysis (stack distances and capacity miss counting; 0 = all cores)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		log.Fatal(err)
	}
	opt := options{csv: *csv, line: *line, l1: *l1, l2: *l2, l3: *l3, sets: *sets, par: *parallelism}
	var err error
	opt.size, err = polybench.ParseSize(*size)
	if err != nil {
		log.Fatal(err)
	}
	opt.kernels, err = selectKernels(*kernels)
	if err != nil {
		log.Fatal(err)
	}

	switch cmd {
	case "fig1":
		fig1(opt)
	case "fig9":
		fig9(opt)
	case "fig10":
		fig10(opt)
	case "fig11":
		fig11(opt)
	case "fig12":
		fig12(opt)
	case "fig13":
		fig13(opt)
	case "fig14":
		fig14(opt)
	case "fig15a":
		fig15a(opt)
	case "fig15b":
		fig15b(opt)
	case "fig16":
		fig16(opt)
	case "table1":
		table1(opt)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments <fig1|fig9|fig10|fig11|fig12|fig13|fig14|fig15a|fig15b|fig16|table1> [flags]")
}

func selectKernels(spec string) ([]polybench.Kernel, error) {
	if spec == "all" {
		return polybench.Kernels(), nil
	}
	var out []polybench.Kernel
	for _, name := range strings.Split(spec, ",") {
		k, ok := polybench.ByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", name)
		}
		out = append(out, k)
	}
	return out, nil
}

func emit(opt options, t *report.Table) {
	if opt.csv {
		t.WriteCSV(os.Stdout)
	} else {
		t.Write(os.Stdout)
		fmt.Println()
	}
}

func modelConfig(opt options) core.Config {
	return core.Config{LineSize: opt.line, CacheSizes: []int64{opt.l1, opt.l2}}
}

// measuredConfig is the hardware stand-in: set associative caches with
// tree-PLRU replacement and a next-line prefetcher (the error sources the
// paper attributes the model-vs-measurement gap to).
func measuredConfig(opt options) cachesim.Config {
	return cachesim.Config{LineSize: opt.line, Levels: []cachesim.LevelConfig{
		{Name: "L1", SizeBytes: opt.l1, Ways: 8, Policy: cachesim.PLRU, NextLinePrefetch: true},
		{Name: "L2", SizeBytes: opt.l2, Ways: 16, Policy: cachesim.PLRU},
	}}
}

func analyze(prog *scop.Program, cfg core.Config, parallelism int) (*core.Result, error) {
	opts := core.DefaultOptions()
	opts.Mode = core.ModeExact
	opts.Parallelism = parallelism
	return core.Analyze(prog, cfg, opts)
}

// fig1: execution time of the model vs trace-driven simulation over
// increasing problem sizes for gemm and cholesky.
func fig1(opt options) {
	t := report.NewTable("Figure 1: model vs simulation scaling",
		"kernel", "size", "accesses", "model [s]", "simulation [s]", "sim/model")
	for _, name := range []string{"gemm", "cholesky"} {
		k, _ := polybench.ByName(name)
		for _, sz := range []polybench.Size{polybench.Mini, polybench.Small, polybench.Medium, opt.size} {
			prog := k.Build(sz)
			start := time.Now()
			res, err := analyze(prog, modelConfig(opt), opt.par)
			if err != nil {
				log.Printf("%s/%s: model failed: %v", name, sz, err)
				continue
			}
			modelTime := time.Since(start).Seconds()

			layout := scop.NewLayout(prog, scop.LayoutNatural, opt.line)
			cp, err := scop.Compile(prog, layout)
			if err != nil {
				log.Fatal(err)
			}
			simStart := time.Now()
			_ = reusedist.ProfileProgram(cp, opt.line)
			simTime := time.Since(simStart).Seconds()
			t.AddRow(name, sz.String(), res.TotalAccesses, modelTime, simTime, simTime/modelTime)
		}
	}
	emit(opt, t)
}

// fig9: model prediction vs the detailed simulation stand-in for hardware
// measurements, per kernel and cache level.
func fig9(opt options) {
	t := report.NewTable("Figure 9: model accuracy vs measured (detailed simulation stand-in)",
		"kernel", "accesses", "L1 model", "L1 measured", "L1 err%", "L2 model", "L2 measured", "L2 err%")
	var errsL1, errsL2 []float64
	for _, k := range opt.kernels {
		prog := k.Build(opt.size)
		res, err := analyze(prog, modelConfig(opt), opt.par)
		if err != nil {
			log.Printf("%s: model failed: %v", k.Name, err)
			continue
		}
		sim, err := core.DetailedSimulation(prog, measuredConfig(opt))
		if err != nil {
			log.Fatal(err)
		}
		e1 := 100 * float64(abs64(res.Levels[0].TotalMisses-sim.Levels[0].Misses)) / float64(res.TotalAccesses)
		e2 := 100 * float64(abs64(res.Levels[1].TotalMisses-sim.Levels[1].Misses)) / float64(res.TotalAccesses)
		errsL1 = append(errsL1, e1)
		errsL2 = append(errsL2, e2)
		t.AddRow(k.Name, res.TotalAccesses,
			res.Levels[0].TotalMisses, sim.Levels[0].Misses, e1,
			res.Levels[1].TotalMisses, sim.Levels[1].Misses, e2)
	}
	t.AddRow("geomean", "", "", "", report.GeoMean(errsL1), "", "", report.GeoMean(errsL2))
	emit(opt, t)
}

// fig10: simulation (fully associative and 8-way LRU) vs the same detailed
// reference, mirroring the Dinero IV comparison.
func fig10(opt options) {
	t := report.NewTable("Figure 10: simulated (Dinero stand-in) vs measured",
		"kernel", "L1 full-assoc", "L1 8-way", "L1 measured", "full err%", "8-way err%")
	for _, k := range opt.kernels {
		prog := k.Build(opt.size)
		layout := scop.NewLayout(prog, scop.LayoutNatural, opt.line)
		cp, err := scop.Compile(prog, layout)
		if err != nil {
			log.Fatal(err)
		}
		full, err := cachesim.Simulate(cp, cachesim.Config{LineSize: opt.line, Levels: []cachesim.LevelConfig{
			{Name: "L1", SizeBytes: opt.l1, Ways: 0, Policy: cachesim.LRU},
		}})
		if err != nil {
			log.Fatal(err)
		}
		assoc, err := cachesim.Simulate(cp, cachesim.Config{LineSize: opt.line, Levels: []cachesim.LevelConfig{
			{Name: "L1", SizeBytes: opt.l1, Ways: 8, Policy: cachesim.LRU},
		}})
		if err != nil {
			log.Fatal(err)
		}
		measured, err := cachesim.Simulate(cp, measuredConfig(opt))
		if err != nil {
			log.Fatal(err)
		}
		total := float64(full.TotalAccesses)
		t.AddRow(k.Name, full.Levels[0].Misses, assoc.Levels[0].Misses, measured.Levels[0].Misses,
			100*float64(abs64(full.Levels[0].Misses-measured.Levels[0].Misses))/total,
			100*float64(abs64(assoc.Levels[0].Misses-measured.Levels[0].Misses))/total)
	}
	emit(opt, t)
}

// fig11: model execution time split into stack distance computation and
// capacity miss counting, plus the number of counted pieces.
func fig11(opt options) {
	t := report.NewTable("Figure 11: model execution time split",
		"kernel", "stack distances [s]", "capacity misses [s]", "total [s]", "#pieces", "affine", "non-affine")
	for _, k := range opt.kernels {
		prog := k.Build(opt.size)
		res, err := analyze(prog, modelConfig(opt), opt.par)
		if err != nil {
			log.Printf("%s: model failed: %v", k.Name, err)
			continue
		}
		t.AddRow(k.Name, res.Stats.StackDistanceTime.Seconds(), res.Stats.CapacityTime.Seconds(),
			res.Stats.TotalTime.Seconds(), res.Stats.CountedPieces, res.Stats.AffinePieces, res.Stats.NonAffinePieces)
	}
	emit(opt, t)
}

// fig12: model execution times for MEDIUM, LARGE, and EXTRALARGE problem
// sizes (the -size flag selects the largest size to include).
func fig12(opt options) {
	t := report.NewTable("Figure 12: model execution time per problem size",
		"kernel", "size", "accesses", "total [s]", "#pieces")
	sizes := []polybench.Size{polybench.Medium, polybench.Large, polybench.ExtraLarge}
	for _, k := range opt.kernels {
		for _, sz := range sizes {
			if sz > opt.size {
				continue
			}
			prog := k.Build(sz)
			res, err := analyze(prog, modelConfig(opt), opt.par)
			if err != nil {
				log.Printf("%s/%s: model failed: %v", k.Name, sz, err)
				continue
			}
			t.AddRow(k.Name, sz.String(), res.TotalAccesses, res.Stats.TotalTime.Seconds(), res.Stats.CountedPieces)
		}
	}
	emit(opt, t)
}

// fig13: model execution time when modeling one, two, or three cache levels.
func fig13(opt options) {
	t := report.NewTable("Figure 13: execution time per number of cache levels",
		"kernel", "L1 only [s]", "L1+L2 [s]", "L1+L2+L3 [s]")
	for _, k := range opt.kernels {
		prog := k.Build(opt.size)
		times := make([]float64, 3)
		failed := false
		for i, sizes := range [][]int64{{opt.l1}, {opt.l1, opt.l2}, {opt.l1, opt.l2, opt.l3}} {
			res, err := analyze(prog, core.Config{LineSize: opt.line, CacheSizes: sizes}, opt.par)
			if err != nil {
				log.Printf("%s: model failed: %v", k.Name, err)
				failed = true
				break
			}
			times[i] = res.Stats.TotalTime.Seconds()
		}
		if failed {
			continue
		}
		t.AddRow(k.Name, times[0], times[1], times[2])
	}
	emit(opt, t)
}

// fig14: speedup of the floor elimination techniques and of partial
// enumeration, measured by disabling them.
func fig14(opt options) {
	t := report.NewTable("Figure 14: speedup of equalization, rasterization, partial enumeration",
		"kernel", "baseline [s]", "no equalization+rasterization [s]", "no rasterization [s]", "full enumeration [s]",
		"equalization x", "rasterization x", "partial enumeration x")
	var eqX, rasX, partX []float64
	for _, k := range opt.kernels {
		prog := k.Build(opt.size)
		run := func(o core.Options) (float64, error) {
			res, err := core.Analyze(prog, modelConfig(opt), o)
			if err != nil {
				return 0, err
			}
			return res.Stats.TotalTime.Seconds(), nil
		}
		base, err := run(core.Options{Equalization: true, Rasterization: true, PartialEnumeration: true})
		if err != nil {
			log.Printf("%s: %v", k.Name, err)
			continue
		}
		noFloor, err1 := run(core.Options{Equalization: false, Rasterization: false, PartialEnumeration: true})
		noRas, err2 := run(core.Options{Equalization: true, Rasterization: false, PartialEnumeration: true})
		noPart, err3 := run(core.Options{Equalization: true, Rasterization: true, PartialEnumeration: false})
		if err1 != nil || err2 != nil || err3 != nil {
			log.Printf("%s: ablation failed: %v %v %v", k.Name, err1, err2, err3)
			continue
		}
		eq := noFloor / base
		ras := noRas / base
		part := noPart / base
		eqX = append(eqX, eq)
		rasX = append(rasX, ras)
		partX = append(partX, part)
		t.AddRow(k.Name, base, noFloor, noRas, noPart, eq, ras, part)
	}
	t.AddRow("geomean", "", "", "", "", report.GeoMean(eqX), report.GeoMean(rasX), report.GeoMean(partX))
	emit(opt, t)
}

// fig15a: the fully associative model against the per-set path, measured.
// PolyCache-style models analyze every cache set separately, so their cost
// grows with the number of sets while the fully associative model runs
// once. The per-set path of this repository is the set-associative
// analysis (Config.Ways), which counts every set's restricted touched-line
// maps; both models are timed end to end on the same kernel and L1
// capacity, the per-set one at the associativity that gives -sets sets.
func fig15a(opt options) {
	lines := opt.l1 / opt.line
	if opt.sets <= 0 || lines%opt.sets != 0 {
		log.Fatalf("fig15a: -sets %d must divide the %d lines of the %d-byte L1", opt.sets, lines, opt.l1)
	}
	ways := int(lines / opt.sets)
	t := report.NewTable(fmt.Sprintf("Figure 15a: fully associative model vs per-set model (%d B L1, %d sets x %d ways)", opt.l1, opt.sets, ways),
		"kernel", "FA model [s]", "FA misses", "per-set model [s]", "per-set misses", "per-set / FA")
	var ratios []float64
	for _, k := range opt.kernels {
		prog := k.Build(opt.size)
		fa, faTime, err := timedAnalyze(prog, core.Config{LineSize: opt.line, CacheSizes: []int64{opt.l1}}, opt.par)
		if err != nil {
			log.Printf("%s: fully associative model failed: %v", k.Name, err)
			continue
		}
		sa, saTime, err := timedAnalyze(prog, core.Config{LineSize: opt.line, CacheSizes: []int64{opt.l1}, Ways: []int{ways}}, opt.par)
		if err != nil {
			log.Printf("%s: per-set model failed: %v", k.Name, err)
			continue
		}
		ratio := saTime / faTime
		ratios = append(ratios, ratio)
		t.AddRow(k.Name, faTime, fa.Levels[0].TotalMisses, saTime, sa.Levels[0].TotalMisses, ratio)
	}
	t.AddRow("geomean", "", "", "", "", report.GeoMean(ratios))
	emit(opt, t)
}

// timedAnalyze runs analyze and returns its wall-clock time in seconds.
func timedAnalyze(prog *scop.Program, cfg core.Config, parallelism int) (*core.Result, float64, error) {
	start := time.Now()
	res, err := analyze(prog, cfg, parallelism)
	return res, time.Since(start).Seconds(), err
}

// fig15b: speedup of the analytical model over trace-driven simulation.
func fig15b(opt options) {
	t := report.NewTable("Figure 15b: speedup over trace-driven simulation",
		"kernel", "accesses", "model [s]", "simulation [s]", "speedup")
	var speedups []float64
	for _, k := range opt.kernels {
		prog := k.Build(opt.size)
		res, err := analyze(prog, modelConfig(opt), opt.par)
		if err != nil {
			log.Printf("%s: model failed: %v", k.Name, err)
			continue
		}
		model := res.Stats.TotalTime.Seconds()
		layout := scop.NewLayout(prog, scop.LayoutNatural, opt.line)
		cp, err := scop.Compile(prog, layout)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if _, err := cachesim.Simulate(cp, measuredConfig(opt)); err != nil {
			log.Fatal(err)
		}
		sim := time.Since(start).Seconds()
		speedups = append(speedups, sim/model)
		t.AddRow(k.Name, res.TotalAccesses, model, sim, sim/model)
	}
	t.AddRow("geomean", "", "", "", report.GeoMean(speedups))
	emit(opt, t)
}

// fig16: model execution time for rectangularly tiled kernels (tile size 16).
func fig16(opt options) {
	t := report.NewTable("Figure 16: model execution time for tiled kernels (tile 16)",
		"kernel", "tiled", "stack distances [s]", "capacity misses [s]", "total [s]")
	for _, k := range opt.kernels {
		prog := k.Build(opt.size)
		tiled, ok := tiling.Tile(prog, 16)
		if !ok {
			t.AddRow(k.Name, "no rectangular tiling", "", "", "")
			continue
		}
		res, err := analyze(tiled, modelConfig(opt), opt.par)
		if err != nil {
			log.Printf("%s (tiled): model failed: %v", k.Name, err)
			t.AddRow(k.Name, "failed", "", "", "")
			continue
		}
		t.AddRow(k.Name, "yes", res.Stats.StackDistanceTime.Seconds(), res.Stats.CapacityTime.Seconds(), res.Stats.TotalTime.Seconds())
	}
	emit(opt, t)
}

// table1: number of non-affine stack distance polynomials by the number of
// dimensions that remain affine (countable symbolically).
func table1(opt options) {
	t := report.NewTable("Table 1: non-affine polynomials by number of affine dimensions",
		"kernel", "0d-affine", "1d-affine", "2d-affine", ">=3d-affine")
	for _, k := range opt.kernels {
		prog := k.Build(opt.size)
		res, err := analyze(prog, modelConfig(opt), opt.par)
		if err != nil {
			log.Printf("%s: model failed: %v", k.Name, err)
			continue
		}
		hist := res.Stats.NonAffineByAffineDims
		three := 0
		for d, n := range hist {
			if d >= 3 {
				three += n
			}
		}
		if res.Stats.NonAffinePieces == 0 {
			continue
		}
		t.AddRow(k.Name, hist[0], hist[1], hist[2], three)
	}
	emit(opt, t)
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
