// Package reusedist computes exact LRU stack distances (reuse distances) of
// a memory trace with the classic last-access-time + order-statistics
// approach (Mattson et al., Bennett/Kruskal, Olken). It is the profiling
// baseline of the related work section and the ground truth used to validate
// the analytical model: for a fully associative LRU cache of capacity C
// lines, an access misses exactly when its backward stack distance exceeds C
// (or the line was never accessed before).
//
// The stack distance of an access follows the paper's convention: it is the
// number of distinct cache lines accessed between the previous access to the
// same line and the current access, including the reused line itself, so the
// smallest possible distance is one.
package reusedist

import (
	"sort"

	"haystack/internal/scop"
)

// Profiler computes the stack distance histogram of a trace fed one cache
// line at a time.
type Profiler struct {
	time     int64
	lastTime map[int64]int64 // line -> last access time (1-based Fenwick rank)
	fenwick  []int64         // Fenwick tree over access times holding last-access markers
	hist     map[int64]int64 // stack distance -> number of accesses
	cold     int64           // first accesses (compulsory misses)
	accesses int64
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{
		lastTime: map[int64]int64{},
		fenwick:  make([]int64, 1024),
		hist:     map[int64]int64{},
	}
}

func (p *Profiler) add(pos int64, delta int64) {
	for i := pos; i < int64(len(p.fenwick)); i += i & (-i) {
		p.fenwick[i] += delta
	}
}

// prefix returns the sum of markers at positions 1..pos.
func (p *Profiler) prefix(pos int64) int64 {
	var s int64
	for i := pos; i > 0; i -= i & (-i) {
		s += p.fenwick[i]
	}
	return s
}

// compact rebuilds the Fenwick tree when the time counter outgrows it,
// remapping the active last-access times onto consecutive ranks.
func (p *Profiler) compact() {
	type entry struct {
		line int64
		t    int64
	}
	entries := make([]entry, 0, len(p.lastTime))
	for line, t := range p.lastTime {
		entries = append(entries, entry{line, t})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].t < entries[j].t })
	size := int64(2 * (len(entries) + 1024))
	p.fenwick = make([]int64, size)
	for rank, e := range entries {
		p.lastTime[e.line] = int64(rank + 1)
		p.add(int64(rank+1), 1)
	}
	p.time = int64(len(entries))
}

// Access records an access to the given cache line.
func (p *Profiler) Access(line int64) {
	p.accesses++
	p.time++
	if p.time >= int64(len(p.fenwick)) {
		p.compact()
		p.time++
	}
	prev, seen := p.lastTime[line]
	if seen {
		// Distinct other lines accessed strictly after prev, plus the line
		// itself.
		others := p.prefix(int64(len(p.fenwick))-1) - p.prefix(prev)
		p.hist[others+1]++
		p.add(prev, -1)
	} else {
		p.cold++
	}
	p.lastTime[line] = p.time
	p.add(p.time, 1)
}

// Profile is the immutable result of a profiling run.
type Profile struct {
	Accesses   int64
	Compulsory int64
	// Histogram maps a stack distance (in distinct cache lines, >= 1) to the
	// number of accesses with exactly that distance.
	Histogram map[int64]int64
}

// Profile returns the histogram collected so far.
func (p *Profiler) Profile() Profile {
	hist := make(map[int64]int64, len(p.hist))
	for k, v := range p.hist {
		hist[k] = v
	}
	return Profile{Accesses: p.accesses, Compulsory: p.cold, Histogram: hist}
}

// MissesForCapacity returns the number of misses of a fully associative LRU
// cache with the given capacity in lines: the compulsory misses plus every
// access whose stack distance exceeds the capacity.
func (pr Profile) MissesForCapacity(lines int64) int64 {
	misses := pr.Compulsory
	for d, n := range pr.Histogram {
		if d > lines {
			misses += n
		}
	}
	return misses
}

// CapacityMissesFor returns only the capacity misses for the given capacity.
func (pr Profile) CapacityMissesFor(lines int64) int64 {
	return pr.MissesForCapacity(lines) - pr.Compulsory
}

// ProfileProgram replays the trace of a compiled program at the given cache
// line size and returns its stack distance profile.
func ProfileProgram(cp *scop.CompiledProgram, lineSize int64) Profile {
	p := NewProfiler()
	cp.ForEachAccess(func(ref scop.MemRef) bool {
		p.Access(ref.Addr / lineSize)
		return true
	})
	return p.Profile()
}
