package presburger_test

// Native Go fuzz targets for the set-algebra frontiers: simplify, coalesce
// and gist. Every target decodes bounded basic sets from the fuzz input,
// applies the operation, and asserts two properties that hold by
// construction: the result satisfies the IR invariants (CheckInvariants) and
// it covers exactly the same integer points as the input over the bounding
// box the decoder always imposes. The seed corpora are derived from
// PolyBench iteration domains (gemm and trmm at Mini size), plus a
// handcrafted seed exercising the div column.

import (
	"testing"

	"haystack/internal/polybench"
	"haystack/internal/presburger"
	"haystack/internal/scop"
)

const (
	fuzzBoxHi   = 5 // every decoded dim is constrained to [0, fuzzBoxHi]
	fuzzMaxCons = 6 // decoded constraints on top of the box
)

func fuzzSpace(ndim int) presburger.Space {
	names := []string{"d0", "d1", "d2"}
	return presburger.NewSpace("F", names[:ndim]...)
}

// fuzzCoeff maps a byte to a small signed coefficient in [-3, 3]; byte 3
// maps to zero.
func fuzzCoeff(b byte) int64 { return int64(b%7) - 3 }

// decodeDims reads the dimension count (1..3) from the first byte.
func decodeDims(data []byte) (int, []byte, bool) {
	if len(data) == 0 {
		return 0, nil, false
	}
	return 1 + int(data[0]%3), data[1:], true
}

// decodeBasicSet builds a basic set over ndim dims from the byte stream:
// an optional div floor((c + a·dims)/den) with den in 2..4, then up to
// fuzzMaxCons constraints [flag, const, coeffs...], and always the bounding
// box 0 <= d <= fuzzBoxHi per dim (so point enumeration over the box is
// exhaustive for the set).
func decodeBasicSet(ndim int, data []byte) presburger.BasicSet {
	pos := 0
	next := func() (byte, bool) {
		if pos < len(data) {
			b := data[pos]
			pos++
			return b, true
		}
		return 0, false
	}
	var divs []presburger.Div
	if b, ok := next(); ok && b&1 == 1 {
		den := int64(2 + (b>>1)%3)
		num := make(presburger.Vec, 1+ndim)
		for i := range num {
			v, ok := next()
			if !ok {
				break
			}
			num[i] = fuzzCoeff(v)
		}
		divs = append(divs, presburger.Div{Num: num, Den: den})
	}
	ncols := 1 + ndim + len(divs)
	var cons []presburger.Constraint
	for len(cons) < fuzzMaxCons {
		flag, ok := next()
		if !ok {
			break
		}
		cb, ok := next()
		if !ok {
			break
		}
		c := make(presburger.Vec, ncols)
		c[0] = int64(int8(cb))
		nonzero := false
		for j := 1; j < ncols; j++ {
			v, ok := next()
			if !ok {
				break
			}
			c[j] = fuzzCoeff(v)
			if c[j] != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			continue
		}
		cons = append(cons, presburger.Constraint{C: c, Eq: flag&1 == 1})
	}
	for d := 0; d < ndim; d++ {
		lo := make(presburger.Vec, ncols)
		lo[1+d] = 1
		hi := make(presburger.Vec, ncols)
		hi[0], hi[1+d] = fuzzBoxHi, -1
		cons = append(cons, presburger.Constraint{C: lo}, presburger.Constraint{C: hi})
	}
	return presburger.NewBasicSet(fuzzSpace(ndim), divs, cons)
}

// forEachBoxPoint enumerates [0, fuzzBoxHi]^ndim.
func forEachBoxPoint(ndim int, fn func(p []int64)) {
	p := make([]int64, ndim)
	var walk func(d int)
	walk = func(d int) {
		if d == ndim {
			fn(p)
			return
		}
		for v := int64(0); v <= fuzzBoxHi; v++ {
			p[d] = v
			walk(d + 1)
		}
	}
	walk(0)
}

// polybenchSeeds encodes the iteration-domain basics of a PolyBench kernel
// at Mini size into the decoder's byte format. Constraints referencing dims
// beyond the first three, div columns, or coefficients outside the decoder's
// range are skipped; the constant must fit an int8.
func polybenchSeeds(tb testing.TB, kernel string) [][]byte {
	k, ok := polybench.ByName(kernel)
	if !ok {
		tb.Fatalf("unknown PolyBench kernel %q", kernel)
	}
	info, err := scop.BuildPoly(k.Build(polybench.Mini))
	if err != nil {
		tb.Fatalf("BuildPoly(%s): %v", kernel, err)
	}
	var seeds [][]byte
	for _, ps := range info.Statements {
		for _, bs := range ps.Domain.Basics() {
			ndim := bs.NDim()
			if ndim > 3 {
				ndim = 3
			}
			if ndim == 0 {
				continue
			}
			buf := []byte{byte(ndim - 1), 0} // dims header, no div
			n := 0
			for _, c := range bs.Constraints() {
				if n == fuzzMaxCons {
					break
				}
				if c.C[0] != int64(int8(c.C[0])) {
					continue
				}
				usable := true
				for j := 1; j < len(c.C); j++ {
					v := c.C[j]
					if j > ndim && v != 0 {
						usable = false
						break
					}
					if v < -3 || v > 3 {
						usable = false
						break
					}
				}
				if !usable {
					continue
				}
				flag := byte(0)
				if c.Eq {
					flag = 1
				}
				buf = append(buf, flag, byte(int8(c.C[0])))
				for j := 1; j <= ndim; j++ {
					var v int64
					if j < len(c.C) {
						v = c.C[j]
					}
					buf = append(buf, byte(v+3))
				}
				n++
			}
			if n > 0 {
				seeds = append(seeds, buf)
			}
		}
	}
	return seeds
}

// divSeed exercises the div column: one dim, div0 = floor(d0/2), and the
// parity constraint d0 - 2*div0 == 0.
func divSeed() []byte {
	return []byte{
		0,    // ndim = 1
		1,    // div present, den = 2
		3, 4, // div numerator: const 0, d0 coeff 1
		1, 0, 4, 1, // eq, const 0, d0 coeff 1, div coeff -2
	}
}

// setSeeds is the seed corpus of FuzzSimplify.
func setSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, kernel := range []string{"gemm", "trmm"} {
		seeds = append(seeds, polybenchSeeds(tb, kernel)...)
	}
	return append(seeds,
		divSeed(),
		[]byte{1, 0, 0, 2, 4, 2, 1}, // 2 dims, ineq d0 - d1 + 2 >= 0 fragment
	)
}

func addSetSeeds(f *testing.F) {
	for _, s := range setSeeds(f) {
		f.Add(s)
	}
}

func FuzzSimplify(f *testing.F) {
	addSetSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		ndim, rest, ok := decodeDims(data)
		if !ok {
			t.Skip()
		}
		bs := decodeBasicSet(ndim, rest)
		simp, nonempty := bs.Simplify()
		if nonempty {
			if err := simp.CheckInvariants(); err != nil {
				t.Fatalf("invariants violated after Simplify: %v\nin:  %v\nout: %v", err, bs, simp)
			}
		}
		forEachBoxPoint(ndim, func(p []int64) {
			in := bs.Contains(p)
			if !nonempty {
				if in {
					t.Fatalf("Simplify reported empty but %v is a point of %v", p, bs)
				}
				return
			}
			if got := simp.Contains(p); got != in {
				t.Fatalf("Simplify changed membership of %v: %v -> %v\nin:  %v\nout: %v", p, in, got, bs, simp)
			}
		})
	})
}

func FuzzCoalesce(f *testing.F) {
	seeds := polybenchSeeds(f, "gemm")
	for _, s := range seeds {
		f.Add(s, s)
	}
	f.Add(divSeed(), divSeed())
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ndim, restA, ok := decodeDims(a)
		if !ok {
			t.Skip()
		}
		sa := decodeBasicSet(ndim, restA)
		sb := decodeBasicSet(ndim, b)
		union := presburger.SetFromBasics(sa, sb)
		coalesced := union.Coalesce()
		if err := coalesced.CheckInvariants(); err != nil {
			t.Fatalf("invariants violated after Coalesce: %v\nin:  %v\nout: %v", err, union, coalesced)
		}
		forEachBoxPoint(ndim, func(p []int64) {
			in := sa.Contains(p) || sb.Contains(p)
			if got := coalesced.Contains(p); got != in {
				t.Fatalf("Coalesce changed membership of %v: %v -> %v\nin:  %v\nout: %v", p, in, got, union, coalesced)
			}
		})
	})
}

func FuzzGist(f *testing.F) {
	seeds := polybenchSeeds(f, "trmm")
	for _, s := range seeds {
		f.Add(s, s)
	}
	f.Add(divSeed(), divSeed())
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ndim, restA, ok := decodeDims(a)
		if !ok {
			t.Skip()
		}
		set := decodeBasicSet(ndim, restA)
		ctx := decodeBasicSet(ndim, b)
		g := set.Gist(ctx)
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("invariants violated after Gist: %v\nset: %v\nctx: %v\nout: %v", err, set, ctx, g)
		}
		// The gist identity: within the context nothing changes.
		forEachBoxPoint(ndim, func(p []int64) {
			if !ctx.Contains(p) {
				return
			}
			if got, want := g.Contains(p), set.Contains(p); got != want {
				t.Fatalf("Gist changed membership of %v within context: %v -> %v\nset: %v\nctx: %v\nout: %v", p, want, got, set, ctx, g)
			}
		})
	})
}
