package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"haystack/internal/budget"
	"haystack/internal/counting"
	"haystack/internal/lexmin"
	"haystack/internal/parwork"
	"haystack/internal/presburger"
	"haystack/internal/qpoly"
	"haystack/internal/scop"
)

// frontierStats tracks the basic-map counts observed at the simplification
// frontiers of the stack-distance pipeline. The counters are atomics because
// the touched-line counting stage simplifies maps on the worker pool; the
// totals are deterministic for a fixed program because the set of frontier
// calls does not depend on scheduling. A nil tracker is valid and records
// nothing.
type frontierStats struct {
	peak, before, after atomic.Int64
}

func (f *frontierStats) observe(before, after int) {
	if f == nil {
		return
	}
	f.before.Add(int64(before))
	f.after.Add(int64(after))
	for {
		cur := f.peak.Load()
		if int64(before) <= cur || f.peak.CompareAndSwap(cur, int64(before)) {
			return
		}
	}
}

// ComputeStackDistancesWith derives, for every statement of the program,
// the backward stack distance of each of its accesses as a piecewise
// quasi-polynomial over the statement instance space (section 3.1 of the
// paper).
//
// The construction follows the paper exactly:
//
//	E  = S ∘ A⁻¹ ∘ A ∘ S⁻¹            (accesses of the same cache line)
//	N  = S⁻¹ ∘ lexmin(L≺ ∩ E) ∘ S     (next access of the same line)
//	B  = S⁻¹ ∘ L⪯⁻¹ ∘ S               (instances executed before t)
//	F  = (S⁻¹ ∘ L⪯ ∘ S) ∘ N⁻¹         (instances executed after the previous access)
//	D  = |A ∘ (F ∩ B)|                (distinct lines touched in between)
//
// The two dominant stages — the per-basic-map lexicographic maxima and the
// per-statement counting of touched lines — are spread over the given number
// of worker goroutines, resolved like Options.Parallelism: a value below one
// selects the number of CPUs. The result is bit-identical for every worker
// count.
func ComputeStackDistancesWith(info *scop.PolyInfo, lineSize int64, workers int) ([]StatementDistance, error) {
	ex, release := Options{Parallelism: workers}.Executor()
	defer release()
	dists, _, _, err := computeStackDistances(context.Background(), info, lineSize, ex, nil, nil, false)
	return dists, err
}

// computeStackDistances is the implementation behind the public wrapper;
// the optional tracker records the basic-map counts at every simplification
// frontier for Stats reporting. The meter budgets the touched-line counts
// (nil = unlimited); ctx is observed between pipeline stages and between
// counted maps. Under bounded mode a statement whose touched-line count
// degrades is dropped from the returned distances and reported in the
// degraded map (statement -> reason) instead of failing the phase; exact
// mode keeps the legacy all-or-nothing contract and returns a nil map.
// The raw touched-line union map (instances of t to the lines accessed in
// t's reuse window) is returned alongside: restricted to one cache set's
// lines it is what the set-associative counting re-counts per set.
func computeStackDistances(ctx context.Context, info *scop.PolyInfo, lineSize int64, ex parwork.Exec, fs *frontierStats, meter *budget.Meter, bounded bool) ([]StatementDistance, map[string]string, presburger.UnionMap, error) {
	S := info.Schedule()
	A := info.LineAccessMap(lineSize)
	Sinv := S.Reverse()
	schedSpace := info.ScheduleSpace()

	// Schedule values to accessed cache lines and back.
	schedToLine, err := Sinv.ApplyRange(A)
	if err != nil {
		return nil, nil, presburger.UnionMap{}, fmt.Errorf("core: building schedule-to-line map: %w", err)
	}
	equal, err := schedToLine.ApplyRange(schedToLine.Reverse())
	if err != nil {
		return nil, nil, presburger.UnionMap{}, fmt.Errorf("core: building equal map: %w", err)
	}
	equalMap, ok := equal.Get(scop.ScheduleSpaceName, scop.ScheduleSpaceName)
	if !ok {
		return nil, nil, presburger.UnionMap{}, fmt.Errorf("core: program has no reuse at all (empty equal map)")
	}

	// Backward-in-time accesses of the same line; the lexicographically
	// largest of them is the previous access. (The paper computes the next
	// map N with a lexmin and inverts it; computing the previous map
	// N⁻¹ directly with a lexmax is equivalent — see section 3.1 — and keeps
	// every floor expression on the side of the target access, which is the
	// side that survives the following compositions.)
	if err := ctx.Err(); err != nil {
		return nil, nil, presburger.UnionMap{}, err
	}
	backwardEqual := equalMap.Intersect(presburger.LexGT(schedSpace))
	backwardEqual = simplifyMap(backwardEqual, fs)
	prevSched, err := lexmin.MapLexmaxExec(ctx, backwardEqual, ex)
	if err != nil {
		return nil, nil, presburger.UnionMap{}, fmt.Errorf("core: previous-access lexmax: %w", err)
	}
	prevSchedUnion := presburger.NewUnionMap().Add(simplifyMap(prevSched, fs))

	// Convert schedule-value relations to statement-instance relations.
	prev, err := composeAll(S, prevSchedUnion, Sinv, fs)
	if err != nil {
		return nil, nil, presburger.UnionMap{}, fmt.Errorf("core: previous map composition: %w", err)
	}
	lexLE := presburger.NewUnionMap().Add(presburger.LexLE(schedSpace))
	lexGE := presburger.NewUnionMap().Add(presburger.LexGE(schedSpace))

	backward, err := composeAll(S, lexGE, Sinv, fs)
	if err != nil {
		return nil, nil, presburger.UnionMap{}, fmt.Errorf("core: backward map: %w", err)
	}
	// forward = (S⁻¹ ∘ L⪯ ∘ S) ∘ N⁻¹: map to the previous access first, then
	// to every instance executed at or after it.
	afterPrev, err := composeAll(S, lexLE, Sinv, fs)
	if err != nil {
		return nil, nil, presburger.UnionMap{}, fmt.Errorf("core: forward map: %w", err)
	}
	forward, err := prev.ApplyRange(afterPrev)
	if err != nil {
		return nil, nil, presburger.UnionMap{}, fmt.Errorf("core: forward map composition: %w", err)
	}
	forward = simplifyUnion(forward, fs)

	if err := ctx.Err(); err != nil {
		return nil, nil, presburger.UnionMap{}, err
	}
	window := forward.Intersect(backward)
	touched, err := window.ApplyRange(A)
	if err != nil {
		return nil, nil, presburger.UnionMap{}, fmt.Errorf("core: touched lines composition: %w", err)
	}

	dists, degraded, err := countTouchedCards(ctx, info, touched, ex, fs, meter, bounded)
	if err != nil {
		return nil, nil, presburger.UnionMap{}, err
	}
	return dists, degraded, touched, nil
}

// countTouchedCards counts the distinct lines per statement instance of a
// touched-line union map: one piecewise quasi-polynomial per statement,
// summed over the accessed arrays. The per-map cardinalities are
// independent, so they are computed on the worker pool; the per-statement
// sums fold the results in map order so the outcome matches the sequential
// computation exactly.
func countTouchedCards(ctx context.Context, info *scop.PolyInfo, touched presburger.UnionMap, ex parwork.Exec, fs *frontierStats, meter *budget.Meter, bounded bool) ([]StatementDistance, map[string]string, error) {
	byStatement := map[string][]presburger.Map{}
	for _, m := range touched.Maps() {
		byStatement[m.InSpace().Name] = append(byStatement[m.InSpace().Name], m)
	}
	names := make([]string, 0, len(byStatement))
	for name := range byStatement {
		names = append(names, name)
	}
	sort.Strings(names)
	type cardItem struct {
		name string
		m    presburger.Map
		card qpoly.PwQPoly
		err  error // bounded mode: why this map's count degraded
	}
	var items []*cardItem
	for _, name := range names {
		if _, ok := info.StatementByName(name); !ok {
			return nil, nil, fmt.Errorf("core: unknown statement %s in touched-line map", name)
		}
		for _, m := range byStatement[name] {
			items = append(items, &cardItem{name: name, m: m})
		}
	}
	// Schedule the counting hardest-first (most basic maps, then most
	// constraints): the giant triangular-update maps dominate the wall
	// clock, and a pool that picks them up last stalls on one worker while
	// the rest idle. The schedule only permutes execution order — items are
	// addressed through `order`, results land in their item, and the fold
	// below walks `items` in canonical order — so results are bit-identical
	// for every worker count.
	weight := func(m presburger.Map) int {
		w := 0
		for _, bm := range m.Basics() {
			w += 8 + len(bm.Constraints()) + 2*len(bm.Divs())
		}
		return w
	}
	weights := make([]int, len(items))
	for i, it := range items {
		weights[i] = weight(it.m)
	}
	order := parwork.HardestFirst(weights)
	// Structurally identical maps (symmetric accesses produce them) are
	// counted once: the first item of each identity class computes the card,
	// the rest copy it.
	leader := make([]int, len(items))
	byKey := map[string]int{}
	for _, idx := range order {
		key := items[idx].m.String()
		if first, ok := byKey[key]; ok {
			leader[idx] = first
		} else {
			byKey[key] = idx
			leader[idx] = idx
		}
	}
	err := ex.RunGroup(ctx, len(items), func(_ *parwork.Worker, scheduled int) error {
		idx := order[scheduled]
		it := items[idx]
		if leader[idx] != idx {
			return nil // copied after the pool drains
		}
		m := simplifyMap(it.m, fs)
		card, err := counting.CardSet(m.AsSet(), m.InSpace().Dim(), m.InSpace(), meter.Op("touched-line count of "+it.name))
		if err != nil {
			if bounded && !budget.IsCancellation(err) {
				// Degrade the statement instead of the analysis; the caller
				// answers it with certified instance-count bounds.
				it.err = err
				return nil
			}
			return fmt.Errorf("core: counting touched lines for %s -> %s: %w", it.name, it.m.OutSpace().Name, err)
		}
		it.card = card
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Leaders are structurally identical to their followers — same statement
	// space, same map string — so copying a leader's failure only ever
	// degrades the leader's own statement.
	for idx, l := range leader {
		if l != idx {
			items[idx].card = items[l].card
			items[idx].err = items[l].err
		}
	}
	degraded := map[string]string{}
	for _, it := range items {
		if it.err != nil {
			if _, ok := degraded[it.name]; !ok {
				degraded[it.name] = it.err.Error()
			}
		}
	}
	totals := make(map[string]qpoly.PwQPoly, len(names))
	for _, name := range names {
		ps, _ := info.StatementByName(name)
		totals[name] = qpoly.ZeroPw(ps.Space)
	}
	// items is ordered by (statement, map index), so this single pass folds
	// every statement's cards in map order. A statement with any degraded
	// map has no complete distance polynomial, so all its cards are dropped.
	for _, it := range items {
		if _, bad := degraded[it.name]; bad {
			continue
		}
		totals[it.name] = totals[it.name].Add(it.card)
	}
	var result []StatementDistance
	for _, name := range names {
		if _, bad := degraded[name]; bad {
			continue
		}
		result = append(result, StatementDistance{Statement: name, Distance: totals[name]})
	}
	if len(degraded) == 0 {
		degraded = nil
	}
	return result, degraded, nil
}

// composeAll composes three union maps left to right (apply a, then b, then c).
func composeAll(a, b, c presburger.UnionMap, fs *frontierStats) (presburger.UnionMap, error) {
	ab, err := a.ApplyRange(b)
	if err != nil {
		return presburger.UnionMap{}, err
	}
	abc, err := ab.ApplyRange(c)
	if err != nil {
		return presburger.UnionMap{}, err
	}
	return simplifyUnion(abc, fs), nil
}

// simplifyMap runs the full coalescing stack on a map: basics are
// normalized, detectably empty ones and duplicates dropped, subsumed and
// adjacent siblings merged, and redundant constraints eliminated. It is the
// simplification frontier of the pipeline — every composition result passes
// through here, which is what keeps the basic-map counts small enough for
// tiled programs to stay tractable.
func simplifyMap(m presburger.Map, fs *frontierStats) presburger.Map {
	before := len(m.Basics())
	out := m.Coalesce()
	var keep []presburger.BasicMap
	for _, bm := range out.Basics() {
		if bm.DefinitelyEmpty() {
			continue
		}
		keep = append(keep, bm)
	}
	fs.observe(before, len(keep))
	if len(keep) == 0 {
		return presburger.EmptyMap(m.InSpace(), m.OutSpace())
	}
	return presburger.MapFromBasics(keep...)
}

func simplifyUnion(u presburger.UnionMap, fs *frontierStats) presburger.UnionMap {
	out := presburger.NewUnionMap()
	for _, m := range u.Maps() {
		s := simplifyMap(m, fs)
		if len(s.Basics()) > 0 {
			out = out.Add(s)
		}
	}
	return out
}

// CountCompulsoryMisses counts the first accesses of every cache line
// (section 3.4). The total is the number of distinct lines touched by the
// program; the per-statement attribution uses the first map
// F = S⁻¹ ∘ lexmin(S ∘ A⁻¹), which assigns every line to the statement whose
// access has the lexicographically smallest schedule value.
func CountCompulsoryMisses(info *scop.PolyInfo, lineSize int64) (int64, map[string]int64, error) {
	iv, perStmt, err := compulsoryMisses(info, lineSize, false, nil)
	return iv.Hi, perStmt, err
}

// compulsoryMisses counts the touched lines of every array. The exact form
// (bounded false) counts each with counting.CountSet and an unlimited
// operation; the bounded form counts each with counting.CountSetInterval
// under op. Only an exact total is attributed to statements, and the
// attribution is best effort: a nil map leaves the total exact.
func compulsoryMisses(info *scop.PolyInfo, lineSize int64, bounded bool, op *budget.Op) (counting.Interval, map[string]int64, error) {
	lines, err := touchedLines(info, lineSize)
	if err != nil {
		return counting.Interval{}, nil, fmt.Errorf("core: counting distinct lines: %w", err)
	}
	total := counting.Exact(0)
	for _, s := range lines {
		var iv counting.Interval
		if bounded {
			iv, err = counting.CountSetInterval(s, op)
		} else {
			var n int64
			n, err = counting.CountSet(s, nil)
			iv = counting.Exact(n)
		}
		if err != nil {
			return counting.Interval{}, nil, fmt.Errorf("core: counting distinct lines: %w", err)
		}
		total = total.Add(iv)
	}
	if !total.IsExact() {
		return total, nil, nil
	}
	perStmt, _ := attributeCompulsory(info, lineSize)
	return total, perStmt, nil
}

// touchedLines returns the cache lines the program touches, one set per
// array: the range of the line access map.
func touchedLines(info *scop.PolyInfo, lineSize int64) ([]presburger.Set, error) {
	lines, err := info.LineAccessMap(lineSize).Range()
	if err != nil {
		return nil, err
	}
	return lines.Sets(), nil
}

// attributeCompulsory splits the compulsory misses by the statement that
// performs the first access of every line.
func attributeCompulsory(info *scop.PolyInfo, lineSize int64) (map[string]int64, error) {
	out := map[string]int64{}
	err := walkFirstAccesses(info, lineSize, func(stmt string, dom presburger.Set) error {
		n, err := counting.CountSet(dom, nil)
		out[stmt] += n
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// walkFirstAccesses visits, per statement, the instances performing the
// first access of some cache line: the domains of the first map
// F = S⁻¹ ∘ lexmin(S ∘ A⁻¹). Both the concrete and the parametric
// attribution count these domains, each with its own counter; any error
// (including a domain the set algebra cannot compute) aborts the walk, so an
// attribution is either complete or absent.
func walkFirstAccesses(info *scop.PolyInfo, lineSize int64, visit func(stmt string, dom presburger.Set) error) error {
	S := info.Schedule()
	A := info.LineAccessMap(lineSize)
	// lines -> schedule values of accesses to them.
	lineToSched, err := A.Reverse().ApplyRange(S)
	if err != nil {
		return err
	}
	for _, m := range lineToSched.Maps() {
		first, err := lexmin.MapLexmin(simplifyMap(m, nil))
		if err != nil {
			return err
		}
		// Back to statement instances: lines -> first-touching instance.
		firstInst, err := presburger.NewUnionMap().Add(first).ApplyRange(S.Reverse())
		if err != nil {
			return err
		}
		for _, fm := range firstInst.Maps() {
			dom, err := fm.Domain()
			if err != nil {
				return err
			}
			if err := visit(fm.OutSpace().Name, dom); err != nil {
				return err
			}
		}
	}
	return nil
}
