// Tile size selection: the motivating use case of the paper. The example
// builds tiled variants of matrix multiplication with different tile sizes
// and uses the cache model to pick the tile size with the fewest predicted
// L1 misses — without ever running the kernel on hardware.
//
// All variants go through the symbolic pipeline (haystack.ComputeDistances)
// by default: the coalescing layer of the Presburger engine keeps the
// basic-map unions of the five-deep tiled nests small, so the symbolic,
// problem-size-independent analysis finishes in seconds. Pass
// -strategy profile to build the tiled models from an exact trace profile
// instead (Options.Mode = haystack.ModeSim) — equally exact, with cost
// proportional to the trace length; useful as a cross-check or for programs
// outside the symbolic fragment. Either way, each variant's distance model
// is built once and could be reused across any number of cache hierarchies
// (see examples/hierarchy).
package main

import (
	"flag"
	"fmt"
	"log"

	"haystack"
)

// tiledGemm builds a gemm kernel with an n x n x n iteration space tiled by
// t in the j and k dimensions (a simple register/cache blocking scheme).
func tiledGemm(n, t int64) *haystack.Program {
	p := haystack.NewProgram(fmt.Sprintf("gemm-tile-%d", t))
	a := p.NewArray("A", haystack.ElemFloat64, n, n)
	b := p.NewArray("B", haystack.ElemFloat64, n, n)
	cArr := p.NewArray("C", haystack.ElemFloat64, n, n)
	i, j, k := haystack.V("i"), haystack.V("j"), haystack.V("k")
	jt, kt := haystack.V("jt"), haystack.V("kt")
	c, x := haystack.C, haystack.X

	body := haystack.Stmt("S0",
		haystack.Read(a, x(i), x(k)),
		haystack.Read(b, x(k), x(j)),
		haystack.Read(cArr, x(i), x(j)),
		haystack.Write(cArr, x(i), x(j)))

	if t >= n {
		p.Add(haystack.For(i, c(0), c(n),
			haystack.For(j, c(0), c(n),
				haystack.For(k, c(0), c(n), body))))
		return p
	}
	// for jt, kt tile loops; i, j, k point loops (j, k bounded by their tile).
	p.Add(
		haystack.For(jt, c(0), c(n/t),
			haystack.For(kt, c(0), c(n/t),
				haystack.For(i, c(0), c(n),
					haystack.For(j, x(jt).Scale(t), x(jt).Scale(t).Plus(c(t)),
						haystack.For(k, x(kt).Scale(t), x(kt).Scale(t).Plus(c(t)), body))))))
	return p
}

func main() {
	strategy := flag.String("strategy", "symbolic",
		"model for tiled variants: 'symbolic' (default; problem-size-independent) or 'profile' (exact trace profile)")
	flag.Parse()
	if *strategy != "symbolic" && *strategy != "profile" {
		log.Fatalf("unknown -strategy %q (want symbolic or profile)", *strategy)
	}

	const n = 32
	cfg := haystack.Config{LineSize: 64, CacheSizes: []int64{8 * 1024}}

	fmt.Printf("gemm %dx%dx%d, 8 KiB fully associative L1\n\n", n, n, n)
	fmt.Printf("%8s  %12s  %12s  %10s\n", "tile", "accesses", "L1 misses", "miss ratio")
	bestTile, bestMisses := int64(0), int64(-1)
	for _, t := range []int64{4, 8, 16, 32} {
		prog := tiledGemm(n, t)
		opts := haystack.DefaultOptions()
		if *strategy == "profile" && t < n {
			opts.Mode = haystack.ModeSim
		}
		dm, err := haystack.ComputeDistances(prog, cfg.LineSize, opts)
		if err != nil {
			log.Fatalf("tile %d: %v", t, err)
		}
		res, err := dm.CountMisses(cfg)
		if err != nil {
			log.Fatalf("tile %d: %v", t, err)
		}
		misses := res.Levels[0].TotalMisses
		fmt.Printf("%8d  %12d  %12d  %9.2f%%\n", t, res.TotalAccesses, misses,
			100*float64(misses)/float64(res.TotalAccesses))
		if bestMisses < 0 || misses < bestMisses {
			bestMisses, bestTile = misses, t
		}
	}
	fmt.Printf("\npredicted best tile size: %d\n", bestTile)
}
