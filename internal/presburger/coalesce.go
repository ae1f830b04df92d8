package presburger

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// This file implements the simplification layer that keeps unions of basic
// sets and maps small through the compositions of the cache model: without
// it, ApplyRange/Intersect/Subtract chains grow the number of basic maps
// multiplicatively and the symbolic analysis of tiled loop nests becomes
// intractable. The layer mirrors the cheap cases of isl's set coalescing:
//
//   - structural dedup: syntactically identical basics appear once;
//   - subsumption: a basic whose points are all covered by a sibling is
//     dropped (detected syntactically by constraint-set inclusion, and
//     semantically by a budgeted rational implication check);
//   - adjacency: two basics that differ in a single cut constraint and its
//     integer complement merge into one (the slabs Subtract produces), and
//     an equality merges with the adjacent half-space into a closed one;
//   - redundancy elimination: constraints implied by the rest of a basic
//     are dropped (budgeted Fourier–Motzkin), which both shrinks the
//     constraint systems and makes the syntactic rules above fire.
//
// Every rule is exact: coalescing never changes the set of integer points,
// and it preserves pairwise disjointness of the input basics (merges cover
// exactly the union of the merged pair), so disjoint decompositions stay
// disjoint.

// Package-wide coalescing hit counters. They are atomics so the parallel
// pipeline stages can share them; totals are deterministic for a fixed
// workload because the set of coalesce calls does not depend on scheduling.
var (
	coalesceDedupHits     atomic.Int64
	coalesceSubsumedHits  atomic.Int64
	coalesceAdjacentHits  atomic.Int64
	coalesceRedundantHits atomic.Int64
)

// CoalesceCounters is a snapshot of the package-wide coalescing counters.
type CoalesceCounters struct {
	// Dedup counts basics dropped as syntactic duplicates of a sibling.
	Dedup int64
	// Subsumed counts basics dropped because a sibling contains them.
	Subsumed int64
	// Adjacent counts pair merges across a single cut constraint.
	Adjacent int64
	// RedundantConstraints counts constraints dropped as implied by the
	// remaining constraints of their basic.
	RedundantConstraints int64
}

// CoalesceCountersSnapshot returns the current values of the coalescing
// counters. Callers measure a pipeline stage by subtracting two snapshots.
func CoalesceCountersSnapshot() CoalesceCounters {
	return CoalesceCounters{
		Dedup:                coalesceDedupHits.Load(),
		Subsumed:             coalesceSubsumedHits.Load(),
		Adjacent:             coalesceAdjacentHits.Load(),
		RedundantConstraints: coalesceRedundantHits.Load(),
	}
}

// Sub returns the counter deltas c - o.
func (c CoalesceCounters) Sub(o CoalesceCounters) CoalesceCounters {
	return CoalesceCounters{
		Dedup:                c.Dedup - o.Dedup,
		Subsumed:             c.Subsumed - o.Subsumed,
		Adjacent:             c.Adjacent - o.Adjacent,
		RedundantConstraints: c.RedundantConstraints - o.RedundantConstraints,
	}
}

// Total returns the sum of all hit counters.
func (c CoalesceCounters) Total() int64 {
	return c.Dedup + c.Subsumed + c.Adjacent + c.RedundantConstraints
}

// Budget limits for the semantic (Fourier–Motzkin based) checks. The
// syntactic rules run unconditionally; the semantic rules bail out on
// systems larger than these bounds, which keeps coalescing strictly cheap
// relative to the compositions it protects. Bailing out only loses merges,
// never correctness.
const (
	redundancyMaxCons = 64
	redundancyMaxCols = 40
	implicationBudget = 256
)

// coalEntry caches the canonical shape of one basic during coalescing.
type coalEntry struct {
	b *basic
	// divSig is a hash of the div list (definitions in order); two basics can
	// only be compared constraint-wise when their div lists are compatible.
	divSig uint64
	// hashes[i] is the hash of constraint i (computed once per entry; every
	// pairwise comparison reuses it).
	hashes []uint64
	// byHash lists the constraint indices sorted by (hash, index): the
	// constraints bearing one hash are a run of it, found by binary search.
	byHash []int32
	// sig is a hash of the whole basic (divs plus sorted constraint hashes).
	sig uint64
}

func newCoalEntry(b *basic) *coalEntry {
	e := &coalEntry{b: b, divSig: hashDivs(b)}
	e.hashes = make([]uint64, len(b.cons))
	e.byHash = make([]int32, len(b.cons))
	for i, c := range b.cons {
		e.hashes[i] = constraintHash(c)
		e.byHash[i] = int32(i)
	}
	slices.SortFunc(e.byHash, func(i, j int32) int {
		if c := cmp.Compare(e.hashes[i], e.hashes[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	sig := e.divSig ^ 0x9e3779b97f4a7c15
	for _, i := range e.byHash {
		sig = fnvMix(sig, e.hashes[i])
	}
	e.sig = fnvMix(sig, uint64(b.ndim))
	return e
}

// hasConstraintHashed reports whether the entry's basic contains a
// constraint structurally equal to c, whose hash the caller already knows.
func (e *coalEntry) hasConstraintHashed(h uint64, c Constraint) bool {
	lo, hi := 0, len(e.byHash)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e.hashes[e.byHash[m]] < h {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for ; lo < len(e.byHash) && e.hashes[e.byHash[lo]] == h; lo++ {
		if constraintsEqual(e.b.cons[e.byHash[lo]], c) {
			return true
		}
	}
	return false
}

// coalesceMaxPasses bounds the pairwise fixpoint iteration; coalescing
// converges in two or three passes in practice.
const coalesceMaxPasses = 8

// coalesce is the one coalescing driver, behind Set.Coalesce,
// Map.Coalesce, Map.CoalesceQuick and every set operation that
// quick-coalesces its result: it simplifies and canonicalizes every basic,
// drops duplicates and subsumed basics, and merges adjacent pairs until no
// rule fires (or the pass budget runs out). The input is not modified; the
// result holds freshly cloned basics (a single basic is returned as is when
// only the syntactic rules run). With full set, the budgeted
// Fourier–Motzkin rules (per-basic redundancy elimination and semantic
// subsumption) run too; without it only the syntactic rules do, which is
// cheap enough to run inside every set operation.
func (u union) coalesce(full bool) union {
	if len(u) == 0 || (len(u) == 1 && !full) {
		return u
	}
	entries := make([]*coalEntry, 0, len(u))
	for i := range u {
		cl := u[i].clone()
		if !cl.simplify() {
			continue
		}
		cl.dropUnusedDivs()
		if full {
			cl.removeRedundantCons()
		}
		entries = append(entries, newCoalEntry(&cl))
	}
	entries = dedupEntries(entries)

	// Pairwise fixpoint: subsumption drops entries, adjacency merges pairs.
	// Removals are marked and compacted per pass so a pass stays a single
	// O(n²) sweep.
	for pass := 0; pass < coalesceMaxPasses; pass++ {
		changed := false
		removed := make([]bool, len(entries))
		for i := range entries {
			if removed[i] {
				continue
			}
			for j := range entries {
				if i == j || removed[j] || removed[i] {
					continue
				}
				a, b := entries[i], entries[j]
				// Subsumption: every constraint of b also constrains a, so a
				// is a subset of b (b's divs are a prefix of a's, hence
				// aligned columns). The syntactic inclusion is checked first;
				// the semantic check covers constraints a only implies.
				if divsCompatible(b.b, a.b) &&
					((len(b.b.cons) <= len(a.b.cons) && entryContainsAll(a, b)) ||
						(full && semanticallyContains(b, a, 2))) {
					coalesceSubsumedHits.Add(1)
					removed[i] = true
					changed = true
					break
				}
				if j > i {
					if merged, ok := tryMergePair(a, b, full); ok {
						coalesceAdjacentHits.Add(1)
						entries[i] = merged
						removed[j] = true
						changed = true
					}
				}
			}
		}
		if changed {
			out := entries[:0]
			for i, e := range entries {
				if !removed[i] {
					out = append(out, e)
				}
			}
			entries = out
		} else {
			break
		}
	}
	out := make(union, len(entries))
	for i, e := range entries {
		e.b.debugAssert("coalesce", false)
		out[i] = *e.b
	}
	return out
}

// dedupEntries removes syntactic duplicates (same signature, verified
// structurally).
func dedupEntries(entries []*coalEntry) []*coalEntry {
	bySig := make(map[uint64][]*coalEntry, len(entries))
	out := entries[:0]
	for _, e := range entries {
		dup := false
		for _, prev := range bySig[e.sig] {
			if basicsEqual(prev.b, e.b) {
				dup = true
				break
			}
		}
		if dup {
			coalesceDedupHits.Add(1)
			continue
		}
		bySig[e.sig] = append(bySig[e.sig], e)
		out = append(out, e)
	}
	return out
}

// divsCompatible reports whether the divs of a are a prefix of the divs of
// b, so that every column of a's layout means the same thing in b's.
func divsCompatible(a, b *basic) bool {
	if a.ndim != b.ndim || len(a.divs) > len(b.divs) {
		return false
	}
	for i, d := range a.divs {
		o := b.divs[i]
		if d.Den != o.Den || !vecsEqualTrimmed(d.Num, o.Num) {
			return false
		}
	}
	return true
}

// entryContainsAll reports whether every constraint of b is structurally
// present in a.
func entryContainsAll(a, b *coalEntry) bool {
	for i, c := range b.b.cons {
		if !a.hasConstraintHashed(b.hashes[i], c) {
			return false
		}
	}
	return true
}

// semanticallyContains reports whether sub ⊆ sup can be shown by rational
// implication: for every constraint c of sup not already present in sub,
// sub ∧ ¬c must be rationally infeasible. sup's divs must be a prefix of
// sub's (checked by the caller), so sup's constraints read correctly over
// sub's columns. A false result makes no claim. The Fourier–Motzkin
// implication check is only worth its cost for near-identical pairs (the
// families Subtract and lexmin splitting produce); pairs with more than
// maxMissing differing constraints are filtered out before any implication
// check runs.
func semanticallyContains(sup, sub *coalEntry, maxMissing int) bool {
	if len(sub.b.cons) > redundancyMaxCons || sub.b.ncols() > redundancyMaxCols {
		return false
	}
	// Column-layout safety: sup's constraints are evaluated over sub's
	// columns, which is only meaningful when sup's divs are a prefix of
	// sub's. Simplification of a merge candidate can drop a middle div and
	// shift the following columns, so this must be re-checked here even
	// when the caller compared the original pair.
	if !divsCompatible(sup.b, sub.b) {
		return false
	}
	var buf [mergeMaxExtras + 1]int
	missingIdx, ok := entryExtras(sup, sub, buf[:maxMissing])
	if !ok {
		return false
	}
	if len(missingIdx) == 0 {
		return true // syntactic subset (caller usually caught this)
	}
	base := sub.b.materializedConstraints(nil)
	ncols := sub.b.ncols()
	for _, idx := range missingIdx {
		if !impliedByRational(base, sup.b.cons[idx], ncols) {
			return false
		}
	}
	return true
}

// impliedByRational reports whether the constraint c is implied by the
// system cons over the rationals (with integer tightening of the negation):
// it checks that cons ∧ ¬c is infeasible within the elimination budget.
// Equalities are checked as two inequalities.
func impliedByRational(cons []Constraint, c Constraint, ncols int) bool {
	if c.Eq {
		return impliedIneq(cons, c.C, 1, ncols) && impliedIneq(cons, c.C, -1, ncols)
	}
	return impliedIneq(cons, c.C, 1, ncols)
}

// impliedIneq reports whether sign*e >= 0 (sign ±1) is implied by cons over
// the rationals, with integer tightening of the negation: whether cons with
// the negation added is infeasible. The rational Fourier–Motzkin
// elimination runs over all non-constant columns and gives up, reporting
// false (not implied), once the intermediate system outgrows the budget,
// which is always safe for the callers (they skip a merge or keep a
// constraint). The system, the negated row and every elimination row live
// in pooled scratch.
func impliedIneq(cons []Constraint, e Vec, sign int64, ncols int) bool {
	sc := getPredScratch()
	defer putPredScratch(sc)
	// ¬(e >= 0) over the integers is -e - 1 >= 0.
	neg := sc.vec(ncols)
	for j := range neg {
		neg[j] = -sign * e.At(j)
	}
	neg[0]--
	_, test := sc.cloneHeaders(0, len(cons)+1)
	copy(test, cons)
	test[len(cons)] = Constraint{C: neg}
	return fmInfeasible(sc, test, ncols, implicationBudget)
}

// entryExtras writes the indices of constraints of a that are not present
// in b into buf and returns them, giving up (with ok=false) as soon as more
// than len(buf) are found.
func entryExtras(a, b *coalEntry, buf []int) ([]int, bool) {
	n := 0
	for i, c := range a.b.cons {
		if !b.hasConstraintHashed(a.hashes[i], c) {
			if n == len(buf) {
				return nil, false
			}
			buf[n] = i
			n++
		}
	}
	return buf[:n], true
}

// isComplement reports whether the inequality vectors u and v describe
// complementary integer half-spaces: v == -u with the constant shifted by
// one (u·x >= 0 vs u·x <= -1).
func isComplement(u, v Vec) bool {
	n := len(u)
	if len(v) > n {
		n = len(v)
	}
	at := func(w Vec, i int) int64 {
		if i < len(w) {
			return w[i]
		}
		return 0
	}
	if at(u, 0)+at(v, 0) != -1 {
		return false
	}
	for i := 1; i < n; i++ {
		if at(u, i)+at(v, i) != 0 {
			return false
		}
	}
	return true
}

// eqAdjacent checks whether the inequality ineq is exactly the open side of
// the equality eq (eq·x == 0 next to eq·x >= 1, or next to -eq·x >= 1). It
// returns the closed relaxation covering both (eq·x >= 0 resp. -eq·x >= 0).
func eqAdjacent(eq, ineq Vec) (Vec, bool) {
	n := len(eq)
	if len(ineq) > n {
		n = len(ineq)
	}
	at := func(w Vec, i int) int64 {
		if i < len(w) {
			return w[i]
		}
		return 0
	}
	matches := func(sign int64) bool {
		if at(ineq, 0) != sign*at(eq, 0)-1 {
			return false
		}
		for i := 1; i < n; i++ {
			if at(ineq, i) != sign*at(eq, i) {
				return false
			}
		}
		return true
	}
	for _, sign := range []int64{1, -1} {
		if matches(sign) {
			out := NewVec(n)
			for i := 0; i < n; i++ {
				out[i] = sign * at(eq, i)
			}
			return out, true
		}
	}
	return nil, false
}

// mergeMaxExtras bounds the number of differing constraints the verified
// (Fourier–Motzkin backed) merge rules will consider on either side.
const mergeMaxExtras = 3

// tryMergePair attempts to fuse two basics into one exact replacement. The
// pair's differing constraints are computed once here and shared by every
// rule: the syntactic adjacency fast path, the equality-extension rule
// (tried in both orientations), and the cut rule (symmetric in its inputs,
// so one direction suffices). All merges require identical div lists so the
// two constraint systems read over the same columns.
func tryMergePair(a, b *coalEntry, full bool) (*coalEntry, bool) {
	if a.b.ndim != b.b.ndim || len(a.b.divs) != len(b.b.divs) ||
		a.divSig != b.divSig || !divsCompatible(a.b, b.b) {
		return nil, false
	}
	var bufA, bufB [mergeMaxExtras]int
	extrasA, ok := entryExtras(a, b, bufA[:])
	if !ok {
		return nil, false
	}
	extrasB, ok := entryExtras(b, a, bufB[:])
	if !ok {
		return nil, false
	}
	if len(extrasA) == 1 && len(extrasB) == 1 {
		if merged, ok := tryAdjacentMerge(a, b, extrasA[0], extrasB[0]); ok {
			return merged, true
		}
	}
	if !full {
		return nil, false
	}
	if merged, ok := tryExtensionMerge(a, b, extrasA, extrasB); ok {
		return merged, true
	}
	if merged, ok := tryExtensionMerge(b, a, extrasB, extrasA); ok {
		return merged, true
	}
	return tryCutMergeFM(a, b, extrasA, extrasB)
}

// tryAdjacentMerge merges two basics that differ in exactly one constraint
// each (indices ai in a, bi in b), when those two constraints are the
// integer complement of each other (cut case: S∧(e>=0) ∪ S∧(e<=-1) == S) or
// an equality adjacent to a half-space (S∧(e==0) ∪ S∧(e>=1) == S∧(e>=0)).
// All other constraints are structurally equal, so no implication check is
// needed — this is the cheap path that also runs in quick mode.
func tryAdjacentMerge(a, b *coalEntry, ai, bi int) (*coalEntry, bool) {
	ca, cb := a.b.cons[ai], b.b.cons[bi]
	switch {
	case !ca.Eq && !cb.Eq && isComplement(ca.C, cb.C):
		// S∧(e>=0) ∪ S∧(-e-1>=0) covers every integer point of S.
		nb := a.b.clone()
		nb.cons = append(nb.cons[:ai], nb.cons[ai+1:]...)
		if !nb.simplify() {
			return nil, false
		}
		return newCoalEntry(&nb), true
	case ca.Eq != cb.Eq:
		// Orient: eqC is the equality, ineqC the inequality.
		eqC, ineqC := ca, cb
		host, drop := &b.b, bi
		if cb.Eq {
			eqC, ineqC = cb, ca
			host, drop = &a.b, ai
		}
		// S∧(e==0) ∪ S∧(e-1>=0)  == S∧(e>=0)
		// S∧(e==0) ∪ S∧(-e-1>=0) == S∧(-e>=0)
		if relaxed, ok := eqAdjacent(eqC.C, ineqC.C); ok {
			nb := (*host).clone()
			nb.cons[drop] = Constraint{C: fit(relaxed, nb.ncols())}
			if !nb.simplify() {
				return nil, false
			}
			return newCoalEntry(&nb), true
		}
	}
	return nil, false
}

// tryExtensionMerge handles the "equality adjacent to an interval" family:
// among a's extra constraints over b is an equality e == 0 whose hyperplane
// touches the open boundary of b (an extra e - 1 >= 0 or -e - 1 >= 0). The
// candidate M joins both constraint systems, relaxes that boundary to
// include the hyperplane, and drops the equality; by construction
// M ∧ (e == 0) ⊆ a and M ∧ (boundary) ⊆ b, so M ⊆ a ∪ b. The reverse
// inclusions a ⊆ M and b ⊆ M are verified by budgeted rational implication.
// This is the shape lexmin's bound splitting and tiling's slab
// decompositions produce in bulk — e.g. d < i, d == i, d > i three-way
// splits fold back to their bounding box.
func tryExtensionMerge(a, b *coalEntry, extrasA, extrasB []int) (*coalEntry, bool) {
	for _, ai := range extrasA {
		eqc := a.b.cons[ai]
		if !eqc.Eq {
			continue
		}
		for _, bi := range extrasB {
			cb := b.b.cons[bi]
			if cb.Eq {
				continue
			}
			relaxed, adjacent := eqAdjacent(eqc.C, cb.C)
			if !adjacent {
				continue
			}
			cand := b.b.clone()
			cand.cons[bi] = Constraint{C: fit(relaxed, cand.ncols())}
			for _, aj := range extrasA {
				if aj != ai {
					cand.addConstraint(a.b.cons[aj].Clone())
				}
			}
			if !cand.simplify() {
				continue
			}
			candE := newCoalEntry(&cand)
			// Verify a ⊆ M and b ⊆ M; M ⊆ a ∪ b holds by construction
			// (adding e == 0 back yields a superset of a's system, adding
			// the original boundary yields a superset of b's).
			if !semanticallyContains(candE, a, mergeMaxExtras+1) {
				continue
			}
			if !semanticallyContains(candE, b, mergeMaxExtras+1) {
				continue
			}
			return candE, true
		}
	}
	return nil, false
}

// tryCutMergeFM generalizes the syntactic cut rule: a and b carry a
// complementary constraint pair (c in a, ¬c in b) but may differ in further
// constraints (bounds one side carries explicitly and the other implies).
// The candidate M joins both constraint systems and drops the pair; by
// construction M ∧ c ⊆ a and M ∧ ¬c ⊆ b, so M ⊆ a ∪ b (every integer
// point satisfies c or ¬c). The reverse inclusions a ⊆ M and b ⊆ M are
// verified by budgeted rational implication. The construction is symmetric
// in a and b, so the caller only tries one orientation.
func tryCutMergeFM(a, b *coalEntry, extrasA, extrasB []int) (*coalEntry, bool) {
	for _, ai := range extrasA {
		ca := a.b.cons[ai]
		if ca.Eq {
			continue
		}
		for _, bi := range extrasB {
			cb := b.b.cons[bi]
			if cb.Eq || !isComplement(ca.C, cb.C) {
				continue
			}
			cand := a.b.clone()
			cand.cons = append(cand.cons[:ai], cand.cons[ai+1:]...)
			for _, bj := range extrasB {
				if bj != bi {
					cand.addConstraint(b.b.cons[bj].Clone())
				}
			}
			if !cand.simplify() {
				continue
			}
			candE := newCoalEntry(&cand)
			if !semanticallyContains(candE, a, mergeMaxExtras+1) {
				continue
			}
			if !semanticallyContains(candE, b, mergeMaxExtras+1) {
				continue
			}
			return candE, true
		}
	}
	return nil, false
}

// removeRedundantCons drops inequality constraints that are implied by the
// remaining constraints of the basic (budgeted rational implication).
// Equalities are kept: they carry structure later eliminations rely on.
func (b *basic) removeRedundantCons() {
	if len(b.cons) < 2 || len(b.cons) > redundancyMaxCons || b.ncols() > redundancyMaxCols {
		return
	}
	// Materialize div bounds once; the per-candidate system swaps in the
	// negated candidate and leaves the others.
	for i := len(b.cons) - 1; i >= 0; i-- {
		c := b.cons[i]
		if c.Eq {
			continue
		}
		rest := make([]Constraint, 0, len(b.cons)-1+2*len(b.divs))
		for j, o := range b.cons {
			if j != i {
				rest = append(rest, Constraint{C: fit(o.C, b.ncols()), Eq: o.Eq})
			}
		}
		rest = b.appendDivBounds(rest, nil)
		if impliedByRational(rest, c, b.ncols()) {
			b.cons = append(b.cons[:i], b.cons[i+1:]...)
			coalesceRedundantHits.Add(1)
		}
	}
}

// dropUnusedDivs removes div definitions no constraint or other div
// references, canonicalizing basics whose divs were inherited from
// compositions that no longer need them.
func (b *basic) dropUnusedDivs() {
	for i := len(b.divs) - 1; i >= 0; i-- {
		col := b.divCol(i)
		if !b.usesColumn(col) {
			b.dropColumn(col)
		}
	}
}

// basicsEqual reports structural equality of two basics: same dimensions,
// identical div lists, and the same multiset of constraints.
func basicsEqual(a, b *basic) bool {
	if a.ndim != b.ndim || len(a.divs) != len(b.divs) || len(a.cons) != len(b.cons) {
		return false
	}
	for i := range a.divs {
		if a.divs[i].Den != b.divs[i].Den || !vecsEqualTrimmed(a.divs[i].Num, b.divs[i].Num) {
			return false
		}
	}
	used := make([]bool, len(b.cons))
outer:
	for _, c := range a.cons {
		for j, o := range b.cons {
			if !used[j] && constraintsEqual(c, o) {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// constraintsEqual compares two constraints ignoring trailing zero columns.
func constraintsEqual(a, b Constraint) bool {
	return a.Eq == b.Eq && vecsEqualTrimmed(a.C, b.C)
}

// vecsEqualTrimmed compares two vectors ignoring trailing zero columns.
func vecsEqualTrimmed(a, b Vec) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		var x, y int64
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			return false
		}
	}
	return true
}

// fnv1a hashing over int64 columns; used for the structural signatures of
// constraints, divs, and whole basics. Lookups verify structurally, so a
// hash collision can cost a missed dedup but never a wrong merge.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// fnvMix folds one 64-bit word into the hash state with a single
// multiply-shift round (cheaper than byte-wise FNV; every lookup verifies
// structurally, so hash quality only affects the number of compares).
func fnvMix(h, x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	return (h ^ x) * fnvPrime
}

// constraintHash hashes a constraint ignoring trailing zero columns.
func constraintHash(c Constraint) uint64 {
	h := uint64(fnvOffset)
	if c.Eq {
		h = fnvMix(h, 1)
	} else {
		h = fnvMix(h, 2)
	}
	cc := c.C
	for len(cc) > 0 && cc[len(cc)-1] == 0 {
		cc = cc[:len(cc)-1]
	}
	for _, x := range cc {
		h = fnvMix(h, uint64(x))
	}
	return h
}

// hashDivs hashes the div list of a basic (definitions in order).
func hashDivs(b *basic) uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(len(b.divs)))
	for _, d := range b.divs {
		h = fnvMix(h, uint64(d.Den))
		num := d.Num
		for len(num) > 0 && num[len(num)-1] == 0 {
			num = num[:len(num)-1]
		}
		for _, x := range num {
			h = fnvMix(h, uint64(x))
		}
	}
	return h
}
