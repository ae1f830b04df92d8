// Package polybench defines the thirty PolyBench/C 4.2.1 kernels used in the
// paper's evaluation as static control programs, together with the standard
// problem sizes (MINI, SMALL, MEDIUM, LARGE, EXTRALARGE).
//
// The kernels follow the reference C implementations: one statement per
// assignment in the loop body, with the array references of each statement
// listed in the order a compiler front end would emit them (right-hand side
// reads first, the written reference last). Scalar variables are assumed to
// live in registers and are not modeled, matching section 2.2 of the paper.
// Loops that iterate downwards in the reference implementation are expressed
// with an ascending loop variable substituted as i -> N-1-i, which preserves
// both the execution order and the access functions.
package polybench

import (
	"fmt"
	"sort"
	"strings"

	"haystack/internal/scop"
)

// Size selects one of the PolyBench problem sizes.
type Size int

const (
	Mini Size = iota
	Small
	Medium
	Large
	ExtraLarge
)

// String returns the PolyBench name of the size.
func (s Size) String() string {
	switch s {
	case Mini:
		return "MINI"
	case Small:
		return "SMALL"
	case Medium:
		return "MEDIUM"
	case Large:
		return "LARGE"
	case ExtraLarge:
		return "EXTRALARGE"
	default:
		return fmt.Sprintf("Size(%d)", int(s))
	}
}

// Sizes lists all problem sizes from small to large.
func Sizes() []Size { return []Size{Mini, Small, Medium, Large, ExtraLarge} }

// ParseSize parses a problem size by its PolyBench name (case insensitive);
// it is the shared flag parser of the command line tools.
func ParseSize(s string) (Size, error) {
	for _, sz := range Sizes() {
		if strings.EqualFold(sz.String(), s) {
			return sz, nil
		}
	}
	return 0, fmt.Errorf("unknown problem size %q", s)
}

// Kernel is one benchmark kernel.
type Kernel struct {
	Name string
	// Category groups kernels like the PolyBench distribution does.
	Category string
	// Build constructs the kernel at the given problem size.
	Build func(Size) *scop.Program
}

var registry []Kernel

func register(name, category string, build func(Size) *scop.Program) {
	registry = append(registry, Kernel{Name: name, Category: category, Build: build})
}

// Kernels returns all kernels sorted by name.
func Kernels() []Kernel {
	out := append([]Kernel(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName returns the kernel with the given name.
func ByName(name string) (Kernel, bool) {
	for _, k := range registry {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// dims is a small helper for per-size problem dimensions.
type dims map[Size][]int64

func (d dims) at(s Size) []int64 { return d[s] }

// Convenience aliases to keep kernel definitions readable.
var (
	c  = scop.C
	x  = scop.X
	v  = scop.V
	f  = scop.For
	st = scop.Stmt
	rd = scop.Read
	wr = scop.Write
)

const elem = scop.ElemFloat64

func init() {
	registerLinearAlgebra()
	registerSolvers()
	registerDataMining()
	registerStencils()
	registerMedley()
}

// ---------------------------------------------------------------------------
// Linear algebra: BLAS-like kernels and multi-matrix products.
// ---------------------------------------------------------------------------

func registerLinearAlgebra() {
	// 2mm: tmp = alpha*A*B; D = beta*D + tmp*C.
	mm2Dims := dims{
		Mini: {16, 18, 22, 24}, Small: {40, 50, 70, 80}, Medium: {180, 190, 210, 220},
		Large: {800, 900, 1100, 1200}, ExtraLarge: {1600, 1800, 2200, 2400},
	}
	register("2mm", "blas", func(s Size) *scop.Program {
		d := mm2Dims.at(s)
		ni, nj, nk, nl := d[0], d[1], d[2], d[3]
		p := scop.NewProgram("2mm")
		A := p.NewArray("A", elem, ni, nk)
		B := p.NewArray("B", elem, nk, nj)
		C := p.NewArray("C", elem, nj, nl)
		D := p.NewArray("D", elem, ni, nl)
		tmp := p.NewArray("tmp", elem, ni, nj)
		i, j, k := v("i"), v("j"), v("k")
		i2, j2, k2 := v("i2"), v("j2"), v("k2")
		p.Add(
			f(i, c(0), c(ni), f(j, c(0), c(nj),
				st("S0", wr(tmp, x(i), x(j))),
				f(k, c(0), c(nk),
					st("S1", rd(A, x(i), x(k)), rd(B, x(k), x(j)), rd(tmp, x(i), x(j)), wr(tmp, x(i), x(j)))))),
			f(i2, c(0), c(ni), f(j2, c(0), c(nl),
				st("S2", rd(D, x(i2), x(j2)), wr(D, x(i2), x(j2))),
				f(k2, c(0), c(nj),
					st("S3", rd(tmp, x(i2), x(k2)), rd(C, x(k2), x(j2)), rd(D, x(i2), x(j2)), wr(D, x(i2), x(j2)))))),
		)
		return p
	})

	// 3mm: E=A*B, F=C*D, G=E*F.
	mm3Dims := dims{
		Mini: {16, 18, 20, 22, 24}, Small: {40, 50, 60, 70, 80}, Medium: {180, 190, 200, 210, 220},
		Large: {800, 900, 1000, 1100, 1200}, ExtraLarge: {1600, 1800, 2000, 2200, 2400},
	}
	register("3mm", "blas", func(s Size) *scop.Program {
		d := mm3Dims.at(s)
		ni, nj, nk, nl, nm := d[0], d[1], d[2], d[3], d[4]
		p := scop.NewProgram("3mm")
		A := p.NewArray("A", elem, ni, nk)
		B := p.NewArray("B", elem, nk, nj)
		C := p.NewArray("C", elem, nj, nm)
		D := p.NewArray("D", elem, nm, nl)
		E := p.NewArray("E", elem, ni, nj)
		F := p.NewArray("F", elem, nj, nl)
		G := p.NewArray("G", elem, ni, nl)
		i1, j1, k1 := v("i1"), v("j1"), v("k1")
		i2, j2, k2 := v("i2"), v("j2"), v("k2")
		i3, j3, k3 := v("i3"), v("j3"), v("k3")
		p.Add(
			f(i1, c(0), c(ni), f(j1, c(0), c(nj),
				st("S0", wr(E, x(i1), x(j1))),
				f(k1, c(0), c(nk),
					st("S1", rd(A, x(i1), x(k1)), rd(B, x(k1), x(j1)), rd(E, x(i1), x(j1)), wr(E, x(i1), x(j1)))))),
			f(i2, c(0), c(nj), f(j2, c(0), c(nl),
				st("S2", wr(F, x(i2), x(j2))),
				f(k2, c(0), c(nm),
					st("S3", rd(C, x(i2), x(k2)), rd(D, x(k2), x(j2)), rd(F, x(i2), x(j2)), wr(F, x(i2), x(j2)))))),
			f(i3, c(0), c(ni), f(j3, c(0), c(nl),
				st("S4", wr(G, x(i3), x(j3))),
				f(k3, c(0), c(nj),
					st("S5", rd(E, x(i3), x(k3)), rd(F, x(k3), x(j3)), rd(G, x(i3), x(j3)), wr(G, x(i3), x(j3)))))),
		)
		return p
	})

	// atax: y = A^T (A x).
	ataxDims := dims{
		Mini: {38, 42}, Small: {116, 124}, Medium: {390, 410},
		Large: {1900, 2100}, ExtraLarge: {1800 * 2, 2200},
	}
	register("atax", "blas", func(s Size) *scop.Program {
		d := ataxDims.at(s)
		m, n := d[0], d[1]
		p := scop.NewProgram("atax")
		A := p.NewArray("A", elem, m, n)
		xv := p.NewArray("x", elem, n)
		y := p.NewArray("y", elem, n)
		tmp := p.NewArray("tmp", elem, m)
		i, j := v("i"), v("j")
		i2, j2, j3 := v("i2"), v("j2"), v("j3")
		p.Add(
			f(i, c(0), c(n), st("S0", wr(y, x(i)))),
			f(i2, c(0), c(m),
				st("S1", wr(tmp, x(i2))),
				f(j2, c(0), c(n),
					st("S2", rd(A, x(i2), x(j2)), rd(xv, x(j2)), rd(tmp, x(i2)), wr(tmp, x(i2)))),
				f(j3, c(0), c(n),
					st("S3", rd(A, x(i2), x(j3)), rd(tmp, x(i2)), rd(y, x(j3)), wr(y, x(j3))))),
		)
		_ = j
		return p
	})

	// bicg: s = A^T r ; q = A p.
	bicgDims := dims{
		Mini: {38, 42}, Small: {116, 124}, Medium: {390, 410},
		Large: {1900, 2100}, ExtraLarge: {3600, 4200},
	}
	register("bicg", "blas", func(s Size) *scop.Program {
		d := bicgDims.at(s)
		m, n := d[0], d[1]
		p := scop.NewProgram("bicg")
		A := p.NewArray("A", elem, n, m)
		sArr := p.NewArray("s", elem, m)
		q := p.NewArray("q", elem, n)
		pv := p.NewArray("p", elem, m)
		r := p.NewArray("r", elem, n)
		i0, i, j := v("i0"), v("i"), v("j")
		p.Add(
			f(i0, c(0), c(m), st("S0", wr(sArr, x(i0)))),
			f(i, c(0), c(n),
				st("S1", wr(q, x(i))),
				f(j, c(0), c(m),
					st("S2", rd(r, x(i)), rd(A, x(i), x(j)), rd(sArr, x(j)), wr(sArr, x(j)),
						rd(A, x(i), x(j)), rd(pv, x(j)), rd(q, x(i)), wr(q, x(i))))),
		)
		return p
	})

	// mvt: x1 = x1 + A y1 ; x2 = x2 + A^T y2.
	mvtDims := dims{
		Mini: {40}, Small: {120}, Medium: {400}, Large: {2000}, ExtraLarge: {4000},
	}
	register("mvt", "blas", func(s Size) *scop.Program {
		n := mvtDims.at(s)[0]
		p := scop.NewProgram("mvt")
		A := p.NewArray("A", elem, n, n)
		x1 := p.NewArray("x1", elem, n)
		x2 := p.NewArray("x2", elem, n)
		y1 := p.NewArray("y1", elem, n)
		y2 := p.NewArray("y2", elem, n)
		i, j, i2, j2 := v("i"), v("j"), v("i2"), v("j2")
		p.Add(
			f(i, c(0), c(n), f(j, c(0), c(n),
				st("S0", rd(A, x(i), x(j)), rd(y1, x(j)), rd(x1, x(i)), wr(x1, x(i))))),
			f(i2, c(0), c(n), f(j2, c(0), c(n),
				st("S1", rd(A, x(j2), x(i2)), rd(y2, x(j2)), rd(x2, x(i2)), wr(x2, x(i2))))),
		)
		return p
	})

	// gemver: multiple BLAS-1/2 operations.
	gemverDims := dims{
		Mini: {40}, Small: {120}, Medium: {400}, Large: {2000}, ExtraLarge: {4000},
	}
	register("gemver", "blas", func(s Size) *scop.Program {
		n := gemverDims.at(s)[0]
		p := scop.NewProgram("gemver")
		A := p.NewArray("A", elem, n, n)
		u1 := p.NewArray("u1", elem, n)
		v1 := p.NewArray("v1", elem, n)
		u2 := p.NewArray("u2", elem, n)
		v2 := p.NewArray("v2", elem, n)
		w := p.NewArray("w", elem, n)
		xa := p.NewArray("x", elem, n)
		y := p.NewArray("y", elem, n)
		z := p.NewArray("z", elem, n)
		i, j, i2, j2, i3, i4, j4 := v("i"), v("j"), v("i2"), v("j2"), v("i3"), v("i4"), v("j4")
		p.Add(
			f(i, c(0), c(n), f(j, c(0), c(n),
				st("S0", rd(A, x(i), x(j)), rd(u1, x(i)), rd(v1, x(j)), rd(u2, x(i)), rd(v2, x(j)), wr(A, x(i), x(j))))),
			f(i2, c(0), c(n), f(j2, c(0), c(n),
				st("S1", rd(A, x(j2), x(i2)), rd(y, x(j2)), rd(xa, x(i2)), wr(xa, x(i2))))),
			f(i3, c(0), c(n),
				st("S2", rd(xa, x(i3)), rd(z, x(i3)), wr(xa, x(i3)))),
			f(i4, c(0), c(n), f(j4, c(0), c(n),
				st("S3", rd(A, x(i4), x(j4)), rd(xa, x(j4)), rd(w, x(i4)), wr(w, x(i4))))),
		)
		return p
	})

	// gesummv: y = alpha*A*x + beta*B*x.
	gesummvDims := dims{
		Mini: {30}, Small: {90}, Medium: {250}, Large: {1300}, ExtraLarge: {2800},
	}
	register("gesummv", "blas", func(s Size) *scop.Program {
		n := gesummvDims.at(s)[0]
		p := scop.NewProgram("gesummv")
		A := p.NewArray("A", elem, n, n)
		B := p.NewArray("B", elem, n, n)
		tmp := p.NewArray("tmp", elem, n)
		xa := p.NewArray("x", elem, n)
		y := p.NewArray("y", elem, n)
		i, j := v("i"), v("j")
		p.Add(
			f(i, c(0), c(n),
				st("S0", wr(tmp, x(i)), wr(y, x(i))),
				f(j, c(0), c(n),
					st("S1", rd(A, x(i), x(j)), rd(xa, x(j)), rd(tmp, x(i)), wr(tmp, x(i)),
						rd(B, x(i), x(j)), rd(xa, x(j)), rd(y, x(i)), wr(y, x(i)))),
				st("S2", rd(tmp, x(i)), rd(y, x(i)), wr(y, x(i)))),
		)
		return p
	})

	// symm: symmetric matrix multiply.
	symmDims := dims{
		Mini: {20, 30}, Small: {60, 80}, Medium: {200, 240}, Large: {1000, 1200}, ExtraLarge: {2000, 2600},
	}
	register("symm", "blas", func(s Size) *scop.Program {
		d := symmDims.at(s)
		m, n := d[0], d[1]
		p := scop.NewProgram("symm")
		A := p.NewArray("A", elem, m, m)
		B := p.NewArray("B", elem, m, n)
		C := p.NewArray("C", elem, m, n)
		i, j, k := v("i"), v("j"), v("k")
		p.Add(
			f(i, c(0), c(m), f(j, c(0), c(n),
				f(k, c(0), x(i),
					st("S0", rd(B, x(i), x(j)), rd(A, x(i), x(k)), rd(C, x(k), x(j)), wr(C, x(k), x(j)),
						rd(B, x(k), x(j)), rd(A, x(i), x(k)))),
				st("S1", rd(C, x(i), x(j)), rd(B, x(i), x(j)), rd(A, x(i), x(i)), wr(C, x(i), x(j))))),
		)
		return p
	})

	// syrk: C = alpha*A*A^T + beta*C (lower triangle).
	syrkDims := dims{
		Mini: {20, 30}, Small: {60, 80}, Medium: {200, 240}, Large: {1000, 1200}, ExtraLarge: {2000, 2600},
	}
	register("syrk", "blas", func(s Size) *scop.Program {
		d := syrkDims.at(s)
		m, n := d[0], d[1]
		p := scop.NewProgram("syrk")
		A := p.NewArray("A", elem, n, m)
		C := p.NewArray("C", elem, n, n)
		i, j, k, j2 := v("i"), v("j"), v("k"), v("j2")
		p.Add(
			f(i, c(0), c(n),
				f(j, c(0), x(i).Plus(c(1)),
					st("S0", rd(C, x(i), x(j)), wr(C, x(i), x(j)))),
				f(k, c(0), c(m),
					f(j2, c(0), x(i).Plus(c(1)),
						st("S1", rd(A, x(i), x(k)), rd(A, x(j2), x(k)), rd(C, x(i), x(j2)), wr(C, x(i), x(j2)))))),
		)
		return p
	})

	// syr2k: C = alpha*A*B^T + alpha*B*A^T + beta*C.
	register("syr2k", "blas", func(s Size) *scop.Program {
		d := syrkDims.at(s)
		m, n := d[0], d[1]
		p := scop.NewProgram("syr2k")
		A := p.NewArray("A", elem, n, m)
		B := p.NewArray("B", elem, n, m)
		C := p.NewArray("C", elem, n, n)
		i, j, k, j2 := v("i"), v("j"), v("k"), v("j2")
		p.Add(
			f(i, c(0), c(n),
				f(j, c(0), x(i).Plus(c(1)),
					st("S0", rd(C, x(i), x(j)), wr(C, x(i), x(j)))),
				f(k, c(0), c(m),
					f(j2, c(0), x(i).Plus(c(1)),
						st("S1", rd(A, x(j2), x(k)), rd(B, x(i), x(k)), rd(B, x(j2), x(k)), rd(A, x(i), x(k)),
							rd(C, x(i), x(j2)), wr(C, x(i), x(j2)))))),
		)
		return p
	})

	// doitgen: multi-resolution analysis kernel.
	doitgenDims := dims{
		Mini: {8, 10, 12}, Small: {20, 25, 30}, Medium: {40, 50, 60}, Large: {140, 150, 160}, ExtraLarge: {220, 250, 270},
	}
	register("doitgen", "blas", func(s Size) *scop.Program {
		d := doitgenDims.at(s)
		nq, nr, np := d[0], d[1], d[2]
		p := scop.NewProgram("doitgen")
		A := p.NewArray("A", elem, nr, nq, np)
		C4 := p.NewArray("C4", elem, np, np)
		sum := p.NewArray("sum", elem, np)
		r, q, pp, ss, p2 := v("r"), v("q"), v("p"), v("s"), v("p2")
		p.Add(
			f(r, c(0), c(nr), f(q, c(0), c(nq),
				f(pp, c(0), c(np),
					st("S0", wr(sum, x(pp))),
					f(ss, c(0), c(np),
						st("S1", rd(A, x(r), x(q), x(ss)), rd(C4, x(ss), x(pp)), rd(sum, x(pp)), wr(sum, x(pp))))),
				f(p2, c(0), c(np),
					st("S2", rd(sum, x(p2)), wr(A, x(r), x(q), x(p2)))))),
		)
		return p
	})
}
