package presburger_test

// Native Go fuzz targets for the set-algebra frontiers: simplify, coalesce,
// gist and projection, and for the disjointness signature that lets the
// piecewise folds skip them. Every set-algebra target decodes bounded basic
// sets from the fuzz input, applies the operation, and asserts two
// properties that hold by construction: the result satisfies the IR
// invariants (CheckInvariants) and it covers exactly the integer points it
// should over the bounding box the decoder always imposes (the input's, or
// for a projection the brute-force projection's, of which the approximate
// projection may cover a superset). The seed corpora are derived from
// PolyBench iteration domains (gemm and trmm at Mini size), plus a
// handcrafted seed exercising the div column.

import (
	"errors"
	"fmt"
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

// FuzzProjectOut checks the two projections against brute force over the
// fuzz box: the header byte picks the projected dimensions [first, first+n),
// an exact ProjectOut that succeeds has exactly the projected box points,
// one that fails reports ErrUnsupported, and ProjectOutApprox always contains
// every projected point.
func FuzzProjectOut(f *testing.F) {
	addSetSeeds(f)
	for _, s := range setSeeds(f) {
		if len(s) > 0 {
			// The same set with the other dimensions projected out.
			f.Add(append([]byte{s[0] + 3}, s[1:]...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ndim, rest, ok := decodeDims(data)
		if !ok {
			t.Skip()
		}
		first := int(data[0]/3) % ndim
		n := 1 + int(data[0]/9)%(ndim-first)
		bs := decodeBasicSet(ndim, rest)
		projected := map[string]bool{}
		forEachBoxPoint(ndim, func(p []int64) {
			if bs.Contains(p) {
				projected[fmt.Sprint(append(append([]int64(nil), p[:first]...), p[first+n:]...))] = true
			}
		})
		exact, err := bs.ProjectOut(first, n)
		if err != nil && !errors.Is(err, presburger.ErrUnsupported) {
			t.Fatalf("ProjectOut(%d, %d) failed with an untyped error: %v\nin: %v", first, n, err, bs)
		}
		if err == nil {
			if ierr := exact.CheckInvariants(); ierr != nil {
				t.Fatalf("invariants violated after ProjectOut(%d, %d): %v\nin:  %v\nout: %v", first, n, ierr, bs, exact)
			}
		}
		approx := bs.ProjectOutApprox(first, n)
		if ierr := approx.CheckInvariants(); ierr != nil {
			t.Fatalf("invariants violated after ProjectOutApprox(%d, %d): %v\nin:  %v\nout: %v", first, n, ierr, bs, approx)
		}
		forEachBoxPoint(ndim-n, func(q []int64) {
			want := projected[fmt.Sprint(q)]
			if err == nil && exact.Contains(q) != want {
				t.Fatalf("ProjectOut(%d, %d) membership of %v is %v, brute force %v\nin:  %v\nout: %v", first, n, q, !want, want, bs, exact)
			}
			if want && !approx.Contains(q) {
				t.Fatalf("ProjectOutApprox(%d, %d) misses %v\nin:  %v\nout: %v", first, n, q, bs, approx)
			}
		})
	})
}

// coalesceSeeds is the seed corpus of FuzzCoalesce; each seed is added as
// both operands.
func coalesceSeeds(tb testing.TB) [][]byte {
	return append(polybenchSeeds(tb, "gemm"), divSeed())
}

// gistSeeds is the seed corpus of FuzzGist; each seed is added as both
// operands.
func gistSeeds(tb testing.TB) [][]byte {
	return append(polybenchSeeds(tb, "trmm"), divSeed())
}

// twice returns the operand pair that decodes seed s as the same set twice:
// the second operand has no dims header.
func twice(s []byte) ([]byte, []byte) { return s, s[1:] }

func FuzzCoalesce(f *testing.F) {
	for _, s := range coalesceSeeds(f) {
		a, b := twice(s)
		f.Add(a, b)
	}
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
	for _, s := range gistSeeds(f) {
		a, b := twice(s)
		f.Add(a, b)
	}
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

// stripeSeed is the residue stripe Σ dims ≡ r (mod 3) over ndim dims,
// written with a div the way the set-associative residue partition writes
// it: Σ dims = 3·floor(Σ dims / 3) + r. As a map, its congruence involves
// the output dimensions whenever ndim > 1.
func stripeSeed(ndim int, r byte) []byte {
	data := []byte{byte(ndim - 1), 3, 3} // dims header; div with den 3; const 0
	for range ndim {
		data = append(data, 4) // numerator coefficient 1
	}
	data = append(data, 1, -r) // eq, const -r
	for range ndim {
		data = append(data, 4) // coefficient 1
	}
	return append(data, 0) // div coefficient -3
}

// FuzzSeparate checks that the disjointness signature is sound: whenever
// two decoded basic sets' signatures Separate, no point of the fuzz box lies
// in both; and whenever the domain signatures of two basic maps (the same
// decoded sets with their leading dimensions as inputs) Separate, no input
// point lies in both domains.
func FuzzSeparate(f *testing.F) {
	for _, s := range coalesceSeeds(f) {
		a, b := twice(s)
		f.Add(a, b)
	}
	for _, ndim := range []int{1, 2} {
		f.Add(stripeSeed(ndim, 0), stripeSeed(ndim, 1)[1:])
		f.Add(stripeSeed(ndim, 1), stripeSeed(ndim, 1)[1:])
	}
	f.Add(divSeed(), stripeSeed(1, 2)[1:])
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ndim, restA, ok := decodeDims(a)
		if !ok {
			t.Skip()
		}
		sa := decodeBasicSet(ndim, restA)
		sb := decodeBasicSet(ndim, b)
		if sa.Signature().Separate(sb.Signature()) {
			forEachBoxPoint(ndim, func(p []int64) {
				if sa.Contains(p) && sb.Contains(p) {
					t.Fatalf("signatures separate, but %v lies in both\na: %v\nb: %v", p, sa, sb)
				}
			})
		}
		if ndim < 2 {
			return
		}
		// The header byte picks the input count as well as the dimensions.
		nIn := 1 + int(a[0]/3)%(ndim-1)
		dims := fuzzSpace(ndim).Dims
		in, out := presburger.NewSpace("I", dims[:nIn]...), presburger.NewSpace("O", dims[nIn:]...)
		asMap := func(bs presburger.BasicSet) presburger.BasicMap {
			return presburger.NewBasicMap(in, out, bs.Divs(), bs.Constraints())
		}
		ma, mb := asMap(sa), asMap(sb)
		if !ma.DomainSignature().Separate(mb.DomainSignature()) {
			return
		}
		// The box bounds every dimension, so a domain point has a witness
		// among the box points.
		inA, inB := map[string]bool{}, map[string]bool{}
		forEachBoxPoint(ndim, func(p []int64) {
			key := fmt.Sprint(p[:nIn])
			inA[key] = inA[key] || ma.Contains(p)
			inB[key] = inB[key] || mb.Contains(p)
			if inA[key] && inB[key] {
				t.Fatalf("domain signatures separate, but input %s lies in both domains\na: %v\nb: %v", key, ma, mb)
			}
		})
	})
}

// TestTwiceSeedsDecodeAlike checks that the operand pairs the two-operand
// fuzz targets seed as "the same set twice" decode to structurally equal
// basics.
func TestTwiceSeedsDecodeAlike(t *testing.T) {
	for _, s := range append(coalesceSeeds(t), gistSeeds(t)...) {
		a, b := twice(s)
		ndim, restA, ok := decodeDims(a)
		if !ok {
			t.Fatalf("seed %v has no dims header", s)
		}
		sa, sb := decodeBasicSet(ndim, restA), decodeBasicSet(ndim, b)
		if !sa.StructurallyEqual(sb) {
			t.Errorf("seed %v decodes as two sets:\n%v\n%v", s, sa, sb)
		}
	}
}
