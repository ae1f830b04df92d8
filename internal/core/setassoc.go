package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"

	"haystack/internal/budget"
	"haystack/internal/cachesim"
	"haystack/internal/counting"
	"haystack/internal/ints"
	"haystack/internal/parwork"
	"haystack/internal/presburger"
	"haystack/internal/qpoly"
	"haystack/internal/scop"
)

// MaxAnalyticalSets caps the number of cache sets the analytical model is
// willing to partition a level into. Each set re-counts the touched-line
// maps restricted to its lines, so the symbolic cost grows linearly with
// the set count; beyond this limit the simulation tier is the better tool
// (an L1 with hundreds of sets is exactly the regime trace replay handles
// in milliseconds).
const MaxAnalyticalSets = 1024

// setAssocLevel is the outcome of counting one set-associative level: the
// fold of the per-set counts in set order, so the totals are bit-identical
// for every worker count and executor shape.
type setAssocLevel struct {
	perStmt  map[string]int64
	bounds   counting.Interval
	degraded []string
	// pieces[s] is the number of per-map distance-card pieces of set s.
	pieces []int
	stats  Stats
}

// countSetAssocLevel counts the capacity misses of one cache level with
// numSets > 1 sets. Per-set LRU is fully associative LRU over the set's
// lines, so an instance whose own access falls into set s misses iff its
// touched-line map, restricted to set-s lines, counts more than `ways`
// distinct lines (the within-set stack distance). The sets are independent
// and fan out as a group over the executor.
//
// Within a set the within-set distance stays a lazy sum of raw cardinality
// summands (counting.CardSetSummands): the residue restriction stripes
// every card domain by congruence classes, and any disjoint piecewise
// normal form — the merged sum the fully associative pipeline hands its
// capacity counter, or even the per-basic-map fold — grows quadratically
// with the stripes (the classic blow-up of piecewise quasi-polynomials
// under modulo constraints). The summands themselves stay small and
// symbolic; the miss classification then sweeps the set's instance domain
// line by line (qpoly.Bag.CountExceeding), which is exact, deterministic,
// and linear in the instance count.
func (dm *DistanceModel) countSetAssocLevel(ctx context.Context, ex parwork.Exec, meter *budget.Meter, level int, numSets, ways int64) (*setAssocLevel, error) {
	part, err := dm.saInfo.SetPartition(dm.LineSize, numSets)
	if err != nil {
		return nil, err
	}
	bounded := dm.opts.Mode == ModeBounded
	waysRat := ints.NewRat(ways, 1)
	// The touched maps of statements that already degraded in the distance
	// phase are skipped: countSymbolic adds their [0, instances] bound per
	// level, and counting any of their sets here would double count.
	base := presburger.NewUnionMap()
	for _, m := range dm.saTouched.Maps() {
		if _, skip := dm.boundedStmts[m.InSpace().Name]; skip {
			continue
		}
		base = base.Add(m)
	}
	type setResult struct {
		perStmt  map[string]int64
		bounds   counting.Interval
		degraded []string
		pieces   int
		stats    Stats
	}
	results := make([]*setResult, numSets)
	err = ex.RunGroup(ctx, int(numSets), func(w *parwork.Worker, s int) error {
		set := int64(s)
		sr := &setResult{perStmt: map[string]int64{}, stats: Stats{NonAffineByAffineDims: map[int]int{}}}
		results[s] = sr
		opPrefix := fmt.Sprintf("L%d set %d ", level+1, set)
		// Restrict every touched map to the lines of this set. The instance
		// domain is NOT restricted here: threading the own-access residue
		// through the cards would stripe every chamber too, and the
		// classification below applies it at evaluation time for free.
		byStmt := map[string][]presburger.Map{}
		for _, m := range base.Maps() {
			rs, err := part.ArrayResidue(m.OutSpace(), set)
			if err != nil {
				return err
			}
			ms := simplifyMap(m.IntersectRange(rs), nil)
			if len(ms.Basics()) > 0 {
				byStmt[m.InSpace().Name] = append(byStmt[m.InSpace().Name], ms)
			}
		}
		stmts := make([]string, 0, len(byStmt))
		for stmt := range byStmt {
			stmts = append(stmts, stmt)
		}
		sort.Strings(stmts)
		degraded := map[string]string{}
		for _, stmt := range stmts {
			if err := ctx.Err(); err != nil {
				return err
			}
			// The within-set distance of every instance of stmt, as a bag of
			// raw cardinality summands whose pointwise sum is the distance.
			// The summand form skips the per-card disjointness fold — the
			// residue stripes fan the summation out, and folding the fan-out
			// back into a disjoint piecewise normal form is the quadratic
			// subtraction chain that dominated the direct-mapped profile.
			var bag []qpoly.Piece
			op := meter.Op(opPrefix + "touched-line count of " + stmt)
			bagErr := func() error {
				for _, m := range byStmt[stmt] {
					pieces, err := counting.CardSetSummands(m.AsSet(), m.InSpace().Dim(), m.InSpace(), op)
					if err != nil {
						return err
					}
					bag = append(bag, pieces...)
				}
				return nil
			}()
			if bagErr != nil {
				if bounded && !budget.IsCancellation(bagErr) {
					degraded[stmt] = bagErr.Error()
					continue
				}
				return fmt.Errorf("core: %scounting touched lines for %s: %w", opPrefix, stmt, bagErr)
			}
			sr.pieces += len(bag)
			// Classify the instances whose own access falls into this set:
			// miss iff the within-set distance exceeds the associativity.
			// The bag sweeps the domain line by line and stops summing a
			// point as soon as the partial sum clears the associativity
			// (sound: summands are chamber counts, so the sum is monotone).
			dom, err := part.StatementSetDomain(stmt, set)
			if err != nil {
				return err
			}
			cop := meter.Op(opPrefix + "miss classification of " + stmt)
			misses, points, scanErr := qpoly.NewBag(bag).CountExceeding(dom, waysRat, func() error { return cop.Charge(1) })
			if scanErr != nil {
				if bounded && !budget.IsCancellation(scanErr) {
					degraded[stmt] = scanErr.Error()
					continue
				}
				return fmt.Errorf("core: %sclassifying misses of %s: %w", opPrefix, stmt, scanErr)
			}
			sr.stats.FullEnumerationPoints += points
			sr.perStmt[stmt] = misses
			sr.bounds = sr.bounds.Add(counting.Interval{Lo: misses, Hi: misses})
		}
		// Statements that degraded for this set: their set-s capacity misses
		// are certifiably within [0, set-s instances].
		for _, stmt := range slices.Sorted(maps.Keys(degraded)) {
			n, cerr := dm.setInstanceCount(part, stmt, set, meter, opPrefix)
			if cerr != nil {
				if budget.IsCancellation(cerr) {
					return cerr
				}
				n = dm.stmtInstances[stmt]
			}
			sr.bounds = sr.bounds.Add(counting.Interval{Lo: 0, Hi: n})
			sr.perStmt[stmt] = ints.SatAdd(sr.perStmt[stmt], n)
			sr.degraded = append(sr.degraded, fmt.Sprintf("%s%s: %s", opPrefix, stmt, degraded[stmt]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Fold the per-set results in set order: every counter is additive, so
	// the totals do not depend on how the pool scheduled the sets.
	lvl := &setAssocLevel{
		perStmt: map[string]int64{},
		pieces:  make([]int, numSets),
		stats:   Stats{NonAffineByAffineDims: map[int]int{}},
	}
	for s := int64(0); s < numSets; s++ {
		sr := results[s]
		lvl.pieces[s] = sr.pieces
		lvl.bounds = lvl.bounds.Add(sr.bounds)
		for stmt, n := range sr.perStmt {
			lvl.perStmt[stmt] = ints.SatAdd(lvl.perStmt[stmt], n)
		}
		lvl.degraded = append(lvl.degraded, sr.degraded...)
		lvl.stats.merge(&sr.stats)
	}
	return lvl, nil
}

// setInstanceCount counts the instances of one statement whose own access
// falls into cache set s — the anchor of the certified bound a degraded
// per-set count falls back to.
func (dm *DistanceModel) setInstanceCount(part *scop.SetPartition, stmt string, set int64, meter *budget.Meter, opPrefix string) (int64, error) {
	dom, err := part.StatementSetDomain(stmt, set)
	if err != nil {
		return 0, err
	}
	return counting.CountSet(dom, meter.Op(opPrefix+"instance count of "+stmt))
}

// SimulateSetAssocReference computes the exact reference counts for a
// set-associative hierarchy: the trace is replayed with the padded array
// layout the model assumes (replaySetAssoc). It is the ground truth the
// analytical set-associative counts are validated against.
func SimulateSetAssocReference(prog *scop.Program, cfg Config) (Reference, error) {
	if err := cfg.Validate(); err != nil {
		return Reference{}, err
	}
	cp, err := compileTrace(prog, cfg.LineSize)
	if err != nil {
		return Reference{}, err
	}
	levels := make([]int, len(cfg.CacheSizes))
	for i := range levels {
		levels[i] = i
	}
	return replaySetAssoc(cp, cfg, levels)
}

// replaySetAssoc replays a compiled trace once, feeding one independent
// single-level LRU cache per listed level of cfg (the model's per-level
// semantics: every level observes the full access stream); TotalMisses[j]
// belongs to levels[j]. It serves SimulateSetAssocReference, which replays
// every level, and the trace tier, which replays only the levels with more
// than one set: the stack distance profile answers the others.
func replaySetAssoc(cp *scop.CompiledProgram, cfg Config, levels []int) (Reference, error) {
	hierarchies := make([]*cachesim.Hierarchy, len(levels))
	for j, i := range levels {
		h, err := cachesim.NewHierarchy(cachesim.Config{
			LineSize: cfg.LineSize,
			Levels: []cachesim.LevelConfig{{
				Name: fmt.Sprintf("L%d", i+1), SizeBytes: cfg.CacheSizes[i],
				Ways: cfg.WaysOf(i), Policy: cachesim.LRU,
			}},
		})
		if err != nil {
			return Reference{}, err
		}
		hierarchies[j] = h
	}
	cp.ForEachAccess(func(ref scop.MemRef) bool {
		for _, h := range hierarchies {
			h.Access(ref.Addr, ref.Write)
		}
		return true
	})
	var ref Reference
	for i, h := range hierarchies {
		res := h.Results()
		if i == 0 {
			ref.TotalAccesses = res.TotalAccesses
			ref.CompulsoryMisses = res.Levels[0].Compulsory
		}
		ref.TotalMisses = append(ref.TotalMisses, res.Levels[0].Misses)
	}
	return ref, nil
}
