package polybench

import "haystack/internal/scop"

// registerStencils adds the stencil kernels.
func registerStencils() {
	// jacobi-1d: two 3-point sweeps per time step.
	j1Dims := dims{
		Mini: {30, 20}, Small: {120, 40}, Medium: {400, 100}, Large: {2000, 500}, ExtraLarge: {4000, 1000},
	}
	register("jacobi-1d", "stencil", func(s Size) *scop.Program {
		d := j1Dims.at(s)
		n, tsteps := d[0], d[1]
		p := scop.NewProgram("jacobi-1d")
		A := p.NewArray("A", elem, n)
		B := p.NewArray("B", elem, n)
		t, i, j := v("t"), v("i"), v("j")
		p.Add(
			f(t, c(0), c(tsteps),
				f(i, c(1), c(n-1),
					st("S0", rd(A, x(i).Minus(c(1))), rd(A, x(i)), rd(A, x(i).Plus(c(1))), wr(B, x(i)))),
				f(j, c(1), c(n-1),
					st("S1", rd(B, x(j).Minus(c(1))), rd(B, x(j)), rd(B, x(j).Plus(c(1))), wr(A, x(j))))),
		)
		return p
	})

	// seidel-2d: in-place 9-point Gauss-Seidel sweep.
	seidelDims := dims{
		Mini: {40, 20}, Small: {120, 40}, Medium: {400, 100}, Large: {2000, 500}, ExtraLarge: {4000, 1000},
	}
	register("seidel-2d", "stencil", func(s Size) *scop.Program {
		d := seidelDims.at(s)
		n, tsteps := d[0], d[1]
		p := scop.NewProgram("seidel-2d")
		A := p.NewArray("A", elem, n, n)
		t, i, j := v("t"), v("i"), v("j")
		p.Add(
			f(t, c(0), c(tsteps),
				f(i, c(1), c(n-1), f(j, c(1), c(n-1),
					st("S0",
						rd(A, x(i).Minus(c(1)), x(j).Minus(c(1))), rd(A, x(i).Minus(c(1)), x(j)), rd(A, x(i).Minus(c(1)), x(j).Plus(c(1))),
						rd(A, x(i), x(j).Minus(c(1))), rd(A, x(i), x(j)), rd(A, x(i), x(j).Plus(c(1))),
						rd(A, x(i).Plus(c(1)), x(j).Minus(c(1))), rd(A, x(i).Plus(c(1)), x(j)), rd(A, x(i).Plus(c(1)), x(j).Plus(c(1))),
						wr(A, x(i), x(j)))))),
		)
		return p
	})

	// fdtd-2d: 2-D finite different time domain kernel.
	fdtdDims := dims{
		Mini: {20, 30, 20}, Small: {60, 80, 40}, Medium: {200, 240, 100}, Large: {1000, 1200, 500}, ExtraLarge: {2000, 2600, 1000},
	}
	register("fdtd-2d", "stencil", func(s Size) *scop.Program {
		d := fdtdDims.at(s)
		nx, ny, tmax := d[0], d[1], d[2]
		p := scop.NewProgram("fdtd-2d")
		ex := p.NewArray("ex", elem, nx, ny)
		ey := p.NewArray("ey", elem, nx, ny)
		hz := p.NewArray("hz", elem, nx, ny)
		fict := p.NewArray("fict", elem, tmax)
		t, j0, i1, j1, i2, j2, i3, j3 := v("t"), v("j0"), v("i1"), v("j1"), v("i2"), v("j2"), v("i3"), v("j3")
		p.Add(
			f(t, c(0), c(tmax),
				f(j0, c(0), c(ny),
					st("S0", rd(fict, x(t)), wr(ey, c(0), x(j0)))),
				f(i1, c(1), c(nx), f(j1, c(0), c(ny),
					st("S1", rd(ey, x(i1), x(j1)), rd(hz, x(i1), x(j1)), rd(hz, x(i1).Minus(c(1)), x(j1)), wr(ey, x(i1), x(j1))))),
				f(i2, c(0), c(nx), f(j2, c(1), c(ny),
					st("S2", rd(ex, x(i2), x(j2)), rd(hz, x(i2), x(j2)), rd(hz, x(i2), x(j2).Minus(c(1))), wr(ex, x(i2), x(j2))))),
				f(i3, c(0), c(nx-1), f(j3, c(0), c(ny-1),
					st("S3", rd(hz, x(i3), x(j3)), rd(ex, x(i3), x(j3).Plus(c(1))), rd(ex, x(i3), x(j3)),
						rd(ey, x(i3).Plus(c(1)), x(j3)), rd(ey, x(i3), x(j3)), wr(hz, x(i3), x(j3)))))),
		)
		return p
	})

	// heat-3d: 3-D heat equation, two 7-point sweeps per time step.
	heatDims := dims{
		Mini: {10, 20}, Small: {20, 40}, Medium: {40, 100}, Large: {120, 500}, ExtraLarge: {200, 1000},
	}
	register("heat-3d", "stencil", func(s Size) *scop.Program {
		d := heatDims.at(s)
		n, tsteps := d[0], d[1]
		p := scop.NewProgram("heat-3d")
		A := p.NewArray("A", elem, n, n, n)
		B := p.NewArray("B", elem, n, n, n)
		t, i, j, k, i2, j2, k2 := v("t"), v("i"), v("j"), v("k"), v("i2"), v("j2"), v("k2")
		stencil := func(name string, src, dst *scop.Array, a, b2, c2 scop.Var) scop.Node {
			return f(a, c(1), c(n-1), f(b2, c(1), c(n-1), f(c2, c(1), c(n-1),
				st(name,
					rd(src, x(a).Plus(c(1)), x(b2), x(c2)), rd(src, x(a), x(b2), x(c2)), rd(src, x(a).Minus(c(1)), x(b2), x(c2)),
					rd(src, x(a), x(b2).Plus(c(1)), x(c2)), rd(src, x(a), x(b2).Minus(c(1)), x(c2)),
					rd(src, x(a), x(b2), x(c2).Plus(c(1))), rd(src, x(a), x(b2), x(c2).Minus(c(1))),
					wr(dst, x(a), x(b2), x(c2))))))
		}
		p.Add(
			f(t, c(0), c(tsteps),
				stencil("S0", A, B, i, j, k),
				stencil("S1", B, A, i2, j2, k2)),
		)
		return p
	})

	// adi: alternating direction implicit solver. The backward sweeps of the
	// reference implementation are expressed with ascending loop variables.
	adiDims := dims{
		Mini: {20, 20}, Small: {60, 40}, Medium: {200, 100}, Large: {1000, 500}, ExtraLarge: {2000, 1000},
	}
	register("adi", "stencil", func(s Size) *scop.Program {
		d := adiDims.at(s)
		n, tsteps := d[0], d[1]
		p := scop.NewProgram("adi")
		u := p.NewArray("u", elem, n, n)
		vv := p.NewArray("v", elem, n, n)
		pa := p.NewArray("p", elem, n, n)
		q := p.NewArray("q", elem, n, n)
		t, i1, j1, j1b, i2, j2, j2b := v("t"), v("i1"), v("j1"), v("j1b"), v("i2"), v("j2"), v("j2b")
		p.Add(
			f(t, c(1), c(tsteps+1),
				// Column sweep.
				f(i1, c(1), c(n-1),
					st("S0", wr(vv, c(0), x(i1)), wr(pa, x(i1), c(0)), rd(vv, c(0), x(i1)), wr(q, x(i1), c(0))),
					f(j1, c(1), c(n-1),
						st("S1", rd(pa, x(i1), x(j1).Minus(c(1))), wr(pa, x(i1), x(j1)),
							rd(u, x(j1), x(i1).Minus(c(1))), rd(u, x(j1), x(i1)), rd(u, x(j1), x(i1).Plus(c(1))),
							rd(q, x(i1), x(j1).Minus(c(1))), rd(pa, x(i1), x(j1).Minus(c(1))), wr(q, x(i1), x(j1)))),
					st("S2", wr(vv, c(n-1), x(i1))),
					// Backward: original j = n-2 .. 1, so j = n-2-j1b with j1b = 0 .. n-3.
					f(j1b, c(0), c(n-2),
						st("S3", rd(pa, x(i1), c(n-2).Minus(x(j1b))), rd(vv, c(n-1).Minus(x(j1b)), x(i1)),
							rd(q, x(i1), c(n-2).Minus(x(j1b))), wr(vv, c(n-2).Minus(x(j1b)), x(i1))))),
				// Row sweep.
				f(i2, c(1), c(n-1),
					st("S4", wr(u, x(i2), c(0)), wr(pa, x(i2), c(0)), rd(u, x(i2), c(0)), wr(q, x(i2), c(0))),
					f(j2, c(1), c(n-1),
						st("S5", rd(pa, x(i2), x(j2).Minus(c(1))), wr(pa, x(i2), x(j2)),
							rd(vv, x(i2).Minus(c(1)), x(j2)), rd(vv, x(i2), x(j2)), rd(vv, x(i2).Plus(c(1)), x(j2)),
							rd(q, x(i2), x(j2).Minus(c(1))), rd(pa, x(i2), x(j2).Minus(c(1))), wr(q, x(i2), x(j2)))),
					st("S6", wr(u, x(i2), c(n-1))),
					f(j2b, c(0), c(n-2),
						st("S7", rd(pa, x(i2), c(n-2).Minus(x(j2b))), rd(u, x(i2), c(n-1).Minus(x(j2b))),
							rd(q, x(i2), c(n-2).Minus(x(j2b))), wr(u, x(i2), c(n-2).Minus(x(j2b))))))),
		)
		return p
	})
}
