package presburger

import (
	"sync"
	"sync/atomic"
)

// The arena layer takes the Presburger hot paths off the allocator in three
// ways. First, basic.clone packs every coefficient vector of the copy into
// one slab allocation (see basic.go): capacity-clamped subslices keep the
// vectors independent — an append can only reallocate, never clobber a
// neighbour. Second, rows are copy-on-write. A basic owns every row it
// holds (constructors and clone copy on entry; checkInvariants rejects
// rows that share memory), so:
//
//   - a short row is never padded to be read: Vec.At reads missing columns
//     as zero;
//   - a write copies a row at most once, and only a row whose coefficient
//     at the rewritten column is non-zero;
//   - dropColumn compacts every row in place within its own slab window;
//   - normalizeConstraint divides a row by its gcd in place;
//   - embed (behind Intersect and ApplyRange) transfers the divs first,
//     then widens the existing rows and carves every transferred row from
//     one slab, like clone.
//
// Third, the transient scratch of the innermost loops (simplify's
// per-column bound tracking, point evaluation during enumeration) and of
// the yes/no predicates (the emptiness check behind DefinitelyEmpty,
// rationalFeasible, the coalescer's budgeted Fourier–Motzkin implication
// test: their throwaway copy, every elimination row and the round headers,
// see predScratch) is recycled through free lists. So is simplify's dedup
// index (dedupScratch): hash-bucketed chains over positions in the kept
// constraint list instead of a map of per-hash lists per call.
//
// Ownership rule for scratch: a buffer obtained from a free list never
// escapes the call that got it — anything that must outlive the call is
// cloned into fresh memory first, and a buffer grown past its size limit
// is dropped instead of returned to the list. Callers of the public API
// never see arena-backed memory.

// Process-wide free-list effectiveness counters, atomically maintained so
// concurrent workers can share the free lists. A hit is a buffer served
// from a free list; a miss is a fresh allocation (empty list or a buffer
// too small for the requested width).
var (
	arenaHits   atomic.Int64
	arenaMisses atomic.Int64
)

// ArenaCounters is a snapshot of the coefficient-vector free-list counters.
type ArenaCounters struct {
	Hits   int64 // scratch buffers served from a free list
	Misses int64 // scratch requests that had to allocate
}

// Sub returns the counter-wise difference c - o, for diffing two snapshots.
func (c ArenaCounters) Sub(o ArenaCounters) ArenaCounters {
	return ArenaCounters{Hits: c.Hits - o.Hits, Misses: c.Misses - o.Misses}
}

// ArenaCountersSnapshot returns the current process-wide arena counters.
// Like CoalesceCountersSnapshot it is monotonic; callers diff two snapshots
// to attribute activity to a phase (best-effort under concurrency).
func ArenaCountersSnapshot() ArenaCounters {
	return ArenaCounters{Hits: arenaHits.Load(), Misses: arenaMisses.Load()}
}

// boundsScratch is the per-column bound tracking used by
// hasConflictingBounds, recycled to avoid four map allocations per
// simplify. Slices are indexed by column and sized to the widest basic
// seen by the owning free-list slot.
type boundsScratch struct {
	lo, hi         []int64
	haveLo, haveHi []bool
}

var boundsPool = sync.Pool{New: func() any { return new(boundsScratch) }}

// getBounds returns cleared per-column bound scratch for n columns.
func getBounds(n int) *boundsScratch {
	s := boundsPool.Get().(*boundsScratch)
	if cap(s.haveLo) < n {
		arenaMisses.Add(1)
		s.lo = make([]int64, n)
		s.hi = make([]int64, n)
		s.haveLo = make([]bool, n)
		s.haveHi = make([]bool, n)
		return s
	}
	arenaHits.Add(1)
	s.lo = s.lo[:n]
	s.hi = s.hi[:n]
	s.haveLo = s.haveLo[:n]
	s.haveHi = s.haveHi[:n]
	for i := 0; i < n; i++ {
		s.haveLo[i] = false
		s.haveHi[i] = false
	}
	return s
}

func putBounds(s *boundsScratch) { boundsPool.Put(s) }

// colsPool recycles the column-vector buffers of point evaluation
// (evalColumnsIntoTry) — the innermost loop of enumeration fallbacks.
var colsPool = sync.Pool{New: func() any { return new([]int64) }}

// getCols returns an uninitialized column buffer of length n.
func getCols(n int) *[]int64 {
	p := colsPool.Get().(*[]int64)
	if cap(*p) < n {
		arenaMisses.Add(1)
		*p = make([]int64, n)
	} else {
		arenaHits.Add(1)
		*p = (*p)[:n]
	}
	return p
}

func putCols(p *[]int64) { colsPool.Put(p) }

// dedupIndex is simplify's constraint index: positions in a constraint
// list keyed by the hash of the constraint's non-constant coefficients.
// Entries are chained per hash bucket with tail insertion, so a walk over
// one hash (first, then next) visits its positions in insertion order, the
// order a map of per-hash lists keeps.
type dedupIndex struct {
	head, tail []int32  // per bucket: first and last entry, -1 when empty
	hash       []uint64 // per entry
	pos        []int32  // per entry: the indexed position
	next       []int32  // per entry: the next entry of its bucket, -1 at the end
	live       int      // entries currently linked
}

// reset empties the index and spreads it over nb buckets (a power of two).
func (x *dedupIndex) reset(nb int) {
	if cap(x.head) < nb {
		x.head = make([]int32, nb)
		x.tail = make([]int32, nb)
	}
	x.head, x.tail = x.head[:nb], x.tail[:nb]
	for i := range x.head {
		x.head[i] = -1
	}
	x.hash, x.pos, x.next = x.hash[:0], x.pos[:0], x.next[:0]
	x.live = 0
}

// insert links position p under hash h at the end of its bucket.
func (x *dedupIndex) insert(h uint64, p int) {
	e := int32(len(x.hash))
	x.hash = append(x.hash, h)
	x.pos = append(x.pos, int32(p))
	x.next = append(x.next, -1)
	bk := h & uint64(len(x.head)-1)
	if x.head[bk] < 0 {
		x.head[bk] = e
	} else {
		x.next[x.tail[bk]] = e
	}
	x.tail[bk] = e
	x.live++
}

// first returns the first linked entry under hash h, or -1.
func (x *dedupIndex) first(h uint64) int32 {
	if x.live == 0 {
		return -1
	}
	return x.skip(x.head[h&uint64(len(x.head)-1)], h)
}

// following returns the linked entry after e under e's hash, or -1.
func (x *dedupIndex) following(e int32) int32 { return x.skip(x.next[e], x.hash[e]) }

// skip returns the first entry from e on along its bucket that bears h.
func (x *dedupIndex) skip(e int32, h uint64) int32 {
	for e >= 0 && x.hash[e] != h {
		e = x.next[e]
	}
	return e
}

// unlink removes the linked entry e from its bucket, keeping the order of
// the others.
func (x *dedupIndex) unlink(e int32) {
	bk := x.hash[e] & uint64(len(x.head)-1)
	prev := int32(-1)
	for cur := x.head[bk]; cur != e; cur = x.next[cur] {
		prev = cur
	}
	if prev < 0 {
		x.head[bk] = x.next[e]
	} else {
		x.next[prev] = x.next[e]
	}
	if x.tail[bk] == e {
		x.tail[bk] = prev
	}
	x.live--
}

// dedupScratch is the working memory of one simplify: the indexes of the
// kept equalities and inequalities, and the copy of the equalities the
// final sweep indexes (its compaction overwrites the kept list in place).
type dedupScratch struct {
	eq, ineq dedupIndex
	eqs      []Constraint
}

var dedupPool = sync.Pool{New: func() any { return new(dedupScratch) }}

// getDedup returns empty dedup indexes for a system of n constraints.
// Reusing pooled buckets counts as an arena hit, growing them as a miss.
func getDedup(n int) *dedupScratch {
	s := dedupPool.Get().(*dedupScratch)
	nb := dedupBuckets(n)
	if cap(s.eq.head) < nb {
		arenaMisses.Add(1)
	} else {
		arenaHits.Add(1)
	}
	s.eq.reset(nb)
	s.ineq.reset(nb)
	return s
}

// dedupBuckets returns the bucket count for n constraints: the smallest
// power of two of at least n, and at least 8.
func dedupBuckets(n int) int {
	nb := 8
	for nb < n {
		nb <<= 1
	}
	return nb
}

// putDedup returns s to the pool, or drops it when a buffer grew past
// predScratch's size limits. The equality copy is cleared so the pool does
// not keep rows alive.
func putDedup(s *dedupScratch) {
	if max(cap(s.eq.head), cap(s.eq.hash), cap(s.ineq.hash), cap(s.eqs)) > maxScratchRows {
		return
	}
	clear(s.eqs)
	s.eqs = s.eqs[:0]
	dedupPool.Put(s)
}

// predScratch is the working memory of one yes/no predicate
// (isObviouslyEmpty, rationalFeasible, impliedIneq): the throwaway
// clone's rows and every Fourier–Motzkin row are carved from one slab, the
// elimination rounds alternate between two header buffers, and the clone's
// headers have buffers of their own. The predicate puts the scratch back
// before it returns, so nothing carved from it outlives the call. A nil
// *predScratch allocates every row and header on the heap, for callers
// that keep what the elimination derives (the scanner).
type predScratch struct {
	slab []int64 // rows are carved from slab[used:]
	used int
	hdr  [2][]Constraint
	next int // index of the header buffer the next round fills
	divs []Div
	cons []Constraint
}

// Size limits of what a pooled predScratch keeps: a slab or header buffer
// grown past them by an outsized system is dropped on put, so one
// pathological elimination does not pin its memory in the pool.
const (
	maxScratchWords = 1 << 16
	maxScratchRows  = 1 << 12
)

var predPool = sync.Pool{New: func() any { return new(predScratch) }}

// getPredScratch returns an empty scratch. Reusing a pooled slab counts as
// an arena hit; every slab allocation counts as a miss (see vec).
func getPredScratch() *predScratch {
	s := predPool.Get().(*predScratch)
	if len(s.slab) > 0 {
		arenaHits.Add(1)
	}
	return s
}

func putPredScratch(s *predScratch) {
	if len(s.slab) > maxScratchWords {
		s.slab = nil
	}
	s.used = 0
	for i, h := range s.hdr {
		if cap(h) > maxScratchRows {
			s.hdr[i] = nil
		}
	}
	if cap(s.cons) > maxScratchRows {
		s.cons = nil
	}
	predPool.Put(s)
}

// vec returns a zeroed row of width n whose capacity is clamped to n, so an
// append reallocates instead of growing into the next row.
func (s *predScratch) vec(n int) Vec {
	if s == nil {
		return NewVec(n)
	}
	if s.used+n > len(s.slab) {
		// Rows already handed out keep the old slab alive; the new one is
		// at least twice as large, so a call grows it O(log) times.
		arenaMisses.Add(1)
		s.slab = make([]int64, max(2*len(s.slab), n, 1024))
		s.used = 0
	}
	v := s.slab[s.used : s.used+n : s.used+n]
	s.used += n
	clear(v)
	return v
}

// header returns an empty constraint header with capacity n, alternating
// between the two buffers: a round reads the header the previous round
// filled and fills the other one.
func (s *predScratch) header(n int) []Constraint {
	if s == nil {
		return make([]Constraint, 0, n)
	}
	i := s.next
	s.next ^= 1
	if cap(s.hdr[i]) < n {
		s.hdr[i] = make([]Constraint, 0, max(n, 64))
	}
	return s.hdr[i][:0]
}

// cloneHeaders returns the div and constraint headers of a copy with nd
// divs and nc constraints. With a nil s they are fresh, and nil when
// empty.
func (s *predScratch) cloneHeaders(nd, nc int) (divs []Div, cons []Constraint) {
	if s == nil {
		if nd > 0 {
			divs = make([]Div, nd)
		}
		if nc > 0 {
			cons = make([]Constraint, nc)
		}
		return divs, cons
	}
	if cap(s.divs) < nd {
		s.divs = make([]Div, nd)
	}
	if cap(s.cons) < nc {
		s.cons = make([]Constraint, nc)
	}
	return s.divs[:nd], s.cons[:nc]
}
