package polybench

import (
	"fmt"
	"sort"

	"haystack/internal/scop"
)

// ParametricKernel is a kernel whose problem sizes are symbolic program
// parameters: Build constructs the program once with scop parameters in its
// loop bounds and array extents, and Bindings maps every standard PolyBench
// size onto concrete parameter values. The concrete registry entry of the
// same name is the parametric program instantiated at Bindings(s), so the
// kernel is defined once and one parametric analysis
// (core.ComputeParametricModel) answers every size.
type ParametricKernel struct {
	Name     string
	Category string
	// Build constructs the parametric program.
	Build func() *scop.Program
	// Bindings returns the parameter values of the standard problem size.
	Bindings func(Size) map[string]int64
}

var parametricRegistry []ParametricKernel

// registerParametric registers the parametric kernel and, under the same
// name, its concrete instantiation at every standard size.
func registerParametric(name, category string, build func() *scop.Program, bindings func(Size) map[string]int64) {
	parametricRegistry = append(parametricRegistry, ParametricKernel{
		Name: name, Category: category, Build: build, Bindings: bindings,
	})
	register(name, category, func(s Size) *scop.Program {
		p, err := build().Instantiate(bindings(s))
		if err != nil {
			panic(fmt.Sprintf("polybench: instantiating %s at %s: %v", name, s, err))
		}
		return p
	})
}

// ParametricKernels returns all parametric kernels sorted by name.
func ParametricKernels() []ParametricKernel {
	out := append([]ParametricKernel(nil), parametricRegistry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ParametricByName returns the parametric kernel with the given name.
func ParametricByName(name string) (ParametricKernel, bool) {
	for _, k := range parametricRegistry {
		if k.Name == name {
			return k, true
		}
	}
	return ParametricKernel{}, false
}

// ParametricNames returns the parametric kernel names in alphabetical order.
func ParametricNames() []string {
	ks := ParametricKernels()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.Name
	}
	return out
}

// The standard problem sizes of the parametric kernels.
var (
	gemmDims = dims{
		Mini: {20, 25, 30}, Small: {60, 70, 80}, Medium: {200, 220, 240},
		Large: {1000, 1100, 1200}, ExtraLarge: {2000, 2300, 2600},
	}
	trmmDims = dims{
		Mini: {20, 30}, Small: {60, 80}, Medium: {200, 240}, Large: {1000, 1200}, ExtraLarge: {2000, 2600},
	}
	jacobi2dDims = dims{
		Mini: {30, 20}, Small: {90, 40}, Medium: {250, 100}, Large: {1300, 500}, ExtraLarge: {2800, 1000},
	}
)

func init() {
	// gemm: C = alpha*A*B + beta*C, parametric in NI, NJ, NK.
	registerParametric("gemm", "blas", func() *scop.Program {
		p := scop.NewProgram("gemm")
		ni, nj, nk := p.NewParam("NI"), p.NewParam("NJ"), p.NewParam("NK")
		A := p.NewArrayP("A", elem, x(ni), x(nk))
		B := p.NewArrayP("B", elem, x(nk), x(nj))
		C := p.NewArrayP("C", elem, x(ni), x(nj))
		i, j, k := v("i"), v("j"), v("k")
		p.Add(f(i, c(0), x(ni),
			f(j, c(0), x(nj),
				st("S0", rd(C, x(i), x(j)), wr(C, x(i), x(j))),
				f(k, c(0), x(nk),
					st("S1", rd(A, x(i), x(k)), rd(B, x(k), x(j)), rd(C, x(i), x(j)), wr(C, x(i), x(j)))))))
		return p
	}, func(s Size) map[string]int64 {
		d := gemmDims.at(s)
		return map[string]int64{"NI": d[0], "NJ": d[1], "NK": d[2]}
	})

	// trmm: triangular matrix multiply, parametric in M and N.
	registerParametric("trmm", "blas", func() *scop.Program {
		p := scop.NewProgram("trmm")
		m, n := p.NewParam("M"), p.NewParam("N")
		A := p.NewArrayP("A", elem, x(m), x(m))
		B := p.NewArrayP("B", elem, x(m), x(n))
		i, j, k := v("i"), v("j"), v("k")
		p.Add(
			f(i, c(0), x(m), f(j, c(0), x(n),
				f(k, x(i).Plus(c(1)), x(m),
					st("S0", rd(A, x(k), x(i)), rd(B, x(k), x(j)), rd(B, x(i), x(j)), wr(B, x(i), x(j)))),
				st("S1", rd(B, x(i), x(j)), wr(B, x(i), x(j))))),
		)
		return p
	}, func(s Size) map[string]int64 {
		d := trmmDims.at(s)
		return map[string]int64{"M": d[0], "N": d[1]}
	})

	// jacobi-2d: two 5-point sweeps per time step, parametric in N and
	// TSTEPS. The interior loops run over 1..N-1, so N >= 2 joins the
	// context to keep the piece domains honest for degenerate sizes.
	registerParametric("jacobi-2d", "stencil", func() *scop.Program {
		p := scop.NewProgram("jacobi-2d")
		n, tsteps := p.NewParam("N"), p.NewParam("TSTEPS")
		p.Require(x(n).Minus(c(2)))
		A := p.NewArrayP("A", elem, x(n), x(n))
		B := p.NewArrayP("B", elem, x(n), x(n))
		t, i, j, i2, j2 := v("t"), v("i"), v("j"), v("i2"), v("j2")
		p.Add(
			f(t, c(0), x(tsteps),
				f(i, c(1), x(n).Minus(c(1)), f(j, c(1), x(n).Minus(c(1)),
					st("S0", rd(A, x(i), x(j)), rd(A, x(i), x(j).Minus(c(1))), rd(A, x(i), x(j).Plus(c(1))),
						rd(A, x(i).Plus(c(1)), x(j)), rd(A, x(i).Minus(c(1)), x(j)), wr(B, x(i), x(j))))),
				f(i2, c(1), x(n).Minus(c(1)), f(j2, c(1), x(n).Minus(c(1)),
					st("S1", rd(B, x(i2), x(j2)), rd(B, x(i2), x(j2).Minus(c(1))), rd(B, x(i2), x(j2).Plus(c(1))),
						rd(B, x(i2).Plus(c(1)), x(j2)), rd(B, x(i2).Minus(c(1)), x(j2)), wr(A, x(i2), x(j2)))))),
		)
		return p
	}, func(s Size) map[string]int64 {
		d := jacobi2dDims.at(s)
		return map[string]int64{"N": d[0], "TSTEPS": d[1]}
	})
}
