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
//   - dropColumn compacts every row in place within its own slab window.
//
// Third, the transient scratch of the innermost loops (simplify's
// per-column bound tracking, point evaluation during enumeration) is
// recycled through free lists.
//
// Ownership rule for scratch: a buffer obtained from a free list never
// escapes the call that got it — anything that must outlive the call is
// cloned into fresh memory first. Callers of the public API never see
// arena-backed memory.

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
