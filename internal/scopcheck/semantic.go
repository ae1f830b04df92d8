package scopcheck

import (
	"fmt"
	"strings"

	"haystack/internal/presburger"
	"haystack/internal/scop"
)

// CheckPoly runs the semantic (Presburger) pass over a polyhedral program
// description: access bounds, schedule totality/single-valuedness/injectivity,
// domain and context non-emptiness. It takes the description BuildPoly
// returned, so the program is structurally well-formed, and only reads it:
// the caller can run its analysis on the same object afterwards.
func CheckPoly(info *scop.PolyInfo) []Diagnostic {
	var diags []Diagnostic
	diags = append(diags, checkContext(info)...)
	diags = append(diags, checkDomains(info)...)
	diags = append(diags, checkBounds(info)...)
	diags = append(diags, checkSchedules(info)...)
	return sortDiags(diags)
}

// checkContext verifies the context set of a parametric program: it must
// have integer points (otherwise no parameter values exist and every
// derived cardinality is vacuous) and must bound every parameter from
// below (the parametric counting machinery minimizes over it).
func checkContext(info *scop.PolyInfo) []Diagnostic {
	nP := info.NParam()
	if nP == 0 {
		return nil
	}
	sp := info.ParamSpace()
	bs := presburger.UniverseBasicSet(sp)
	w := bs.NCols()
	for _, e := range info.Program.Context {
		c := presburger.Constraint{C: presburger.NewVec(w)}
		c.C[0] = e.Const
		for i, name := range info.Params {
			c.C[1+i] += e.Coeffs[name]
		}
		bs = bs.AddConstraint(c)
	}
	ctx := presburger.SetFromBasic(bs)
	point, status := firstPoint(ctx)
	switch status {
	case witnessEmpty:
		return []Diagnostic{{
			Kind: KindInfeasibleContext, Severity: Error, AccessIndex: -1,
			Message: "no parameter values satisfy the context constraints",
		}}
	case witnessUndecided:
		return []Diagnostic{{
			Kind: KindUnboundedParameter, Severity: Warning, AccessIndex: -1,
			Message: fmt.Sprintf("the context set does not bound the parameters (%s) from below", strings.Join(info.Params, ", ")),
		}}
	}
	// The lexicographic minimum of the context set doubles as proof that
	// every parameter is bounded from below.
	_ = point
	return nil
}

// checkDomains verifies that every statement executes at least once. An
// empty domain is not unsound — the statement simply contributes nothing —
// but it is almost always a bug in the loop bounds, so it warns.
func checkDomains(info *scop.PolyInfo) []Diagnostic {
	var diags []Diagnostic
	for _, ps := range info.Statements {
		// Cheap existence check first (works for all concrete programs);
		// fall back to the lexmin-based search for parametric domains, whose
		// unbounded parameter dimensions defeat enumeration.
		_, status := anyPoint(ps.Domain)
		if status == witnessUndecided {
			_, status = firstPoint(ps.Domain)
		}
		switch status {
		case witnessEmpty:
			diags = append(diags, Diagnostic{
				Kind: KindEmptyDomain, Severity: Warning, Statement: ps.Name, AccessIndex: -1,
				Message: "iteration domain has no integer points: the statement never executes",
			})
		case witnessUndecided:
			diags = append(diags, Diagnostic{
				Kind: KindUnverifiable, Severity: Warning, Statement: ps.Name, AccessIndex: -1,
				Message: "could not decide whether the iteration domain is empty",
			})
		}
	}
	return diags
}

// checkBounds proves, per array reference and array dimension, that the
// subscript stays inside [0, extent) on the whole iteration domain. A
// violation is reported with the lexicographically first failing statement
// instance and the array element it touches.
func checkBounds(info *scop.PolyInfo) []Diagnostic {
	var diags []Diagnostic
	nP := info.NParam()
	for _, ar := range info.AccessRelations(0) {
		ps := ar.Statement
		arr := ar.Access.Array
		rank := arr.Rank()
		nIn := ps.Space.Dim()
		for d := 0; d < rank; d++ {
			outCol := 1 + nIn + nP + d
			// Violating sets: the access relation restricted to subscript
			// values outside the extent, one direction at a time.
			var lowViol, highViol []presburger.BasicSet
			for _, bm := range ar.Map.Basics() {
				w := bm.NCols()
				low := presburger.Constraint{C: presburger.NewVec(w)}
				low.C[0] = -1
				low.C[outCol] = -1 // out_d <= -1
				lowViol = append(lowViol, bm.AddConstraint(low).AsSet())

				high := presburger.Constraint{C: presburger.NewVec(w)}
				high.C[outCol] = 1 // out_d >= extent
				if arr.IsParametric() {
					e := arr.DimExprs[d]
					high.C[0] = -e.Const
					for i, name := range info.Params {
						high.C[1+nIn+i] -= e.Coeffs[name]
					}
				} else {
					high.C[0] = -arr.Dims[d]
				}
				highViol = append(highViol, bm.AddConstraint(high).AsSet())
			}
			extent := extentString(arr, d)
			diags = appendBoundsDiag(diags, info, ar, lowViol, d,
				fmt.Sprintf("subscript %d of %s drops below 0 (extent %s)", d, arr.Name, extent))
			diags = appendBoundsDiag(diags, info, ar, highViol, d,
				fmt.Sprintf("subscript %d of %s reaches the extent %s", d, arr.Name, extent))
		}
	}
	return diags
}

// extentString renders the declared extent of one array dimension.
func extentString(arr *scop.Array, d int) string {
	if arr.IsParametric() {
		return arr.DimExprs[d].String()
	}
	return fmt.Sprintf("%d", arr.Dims[d])
}

// appendBoundsDiag decides one violation set (the basics of one access, one
// dimension, one direction) and appends the resulting diagnostic, if any.
// The witness point is reported over the statement instance dimensions
// followed by the accessed array element.
func appendBoundsDiag(diags []Diagnostic, info *scop.PolyInfo, ar scop.AccessRelation,
	viol []presburger.BasicSet, dim int, msg string) []Diagnostic {
	if len(viol) == 0 {
		return diags
	}
	set := presburger.SetFromBasics(viol...)
	point, status := firstPoint(set)
	ps := ar.Statement
	switch status {
	case witnessEmpty:
		return diags
	case witnessUndecided:
		return append(diags, Diagnostic{
			Kind: KindUnverifiable, Severity: Warning, Statement: ps.Name,
			Array: ar.Access.Array.Name, AccessIndex: ar.AccessIndex,
			Message: fmt.Sprintf("could not prove bounds: %s", msg),
		})
	}
	// The point lives in the wrapped product space [instance, array]; slice
	// off the duplicated parameter prefix of the array tuple.
	nIn := ps.Space.Dim()
	nP := info.NParam()
	rank := ar.Access.Array.Rank()
	witness := append(append([]int64(nil), point[:nIn]...), point[nIn+nP:nIn+nP+rank]...)
	dims := append(append([]string(nil), ps.Space.Dims...), ar.Map.OutSpace().Dims[nP:]...)
	return append(diags, Diagnostic{
		Kind: KindOutOfBounds, Severity: Error, Statement: ps.Name,
		Array: ar.Access.Array.Name, AccessIndex: ar.AccessIndex,
		Message: msg, Witness: witness, WitnessDims: dims,
	})
}

// checkSchedules proves the schedule well-formed: total (every domain point
// has a time stamp), single-valued (at most one stamp per instance), and
// injective across all statements (no stamp shared by two instances).
func checkSchedules(info *scop.PolyInfo) []Diagnostic {
	var diags []Diagnostic
	schedSpace := info.ScheduleSpace()
	schedLT := presburger.LexLT(schedSpace)

	for _, ps := range info.Statements {
		// Totality: domain points without a schedule image.
		sd, err := ps.Schedule.Domain()
		if err != nil {
			diags = append(diags, Diagnostic{
				Kind: KindUnverifiable, Severity: Warning, Statement: ps.Name, AccessIndex: -1,
				Message: fmt.Sprintf("could not compute the schedule domain: %v", err),
			})
		} else {
			missing := ps.Domain.Subtract(sd)
			diags = decideViolation(diags, missing, ps.Space.Dims, Diagnostic{
				Kind: KindScheduleNotTotal, Severity: Error, Statement: ps.Name, AccessIndex: -1,
				Message: "statement instance has no schedule time stamp",
			})
		}

		// Single-valuedness: instances related to two lexicographically
		// ordered stamps. S ∘ LexLT ∩ S relates x to a stamp t' for which a
		// smaller stamp t with S(x) = t also exists.
		multi, err := ps.Schedule.ApplyRange(schedLT)
		if err != nil {
			diags = append(diags, Diagnostic{
				Kind: KindUnverifiable, Severity: Warning, Statement: ps.Name, AccessIndex: -1,
				Message: fmt.Sprintf("could not prove the schedule single-valued: %v", err),
			})
		} else {
			viol := multi.Intersect(ps.Schedule)
			dims := append(append([]string(nil), ps.Space.Dims...), schedSpace.Dims...)
			diags = decideViolation(diags, mapAsSet(viol), dims, Diagnostic{
				Kind: KindScheduleNotSingleValued, Severity: Error, Statement: ps.Name, AccessIndex: -1,
				Message: "statement instance has more than one schedule time stamp",
			})
		}
	}

	// Injectivity: for every statement pair (p, q), instances of p and q
	// sharing a time stamp. Within one statement the shared-stamp relation
	// Sp ∘ Sp⁻¹ always contains the identity, so only lexicographically
	// ordered pairs count; across statements any shared stamp is a
	// violation.
	for i, p := range info.Statements {
		for j := i; j < len(info.Statements); j++ {
			q := info.Statements[j]
			shared, err := p.Schedule.ApplyRange(q.Schedule.Reverse())
			if err != nil {
				diags = append(diags, Diagnostic{
					Kind: KindUnverifiable, Severity: Warning, Statement: p.Name, AccessIndex: -1,
					Message: fmt.Sprintf("could not prove the schedule injective against %s: %v", q.Name, err),
				})
				continue
			}
			if i == j {
				shared = shared.Intersect(presburger.LexLT(p.Space))
			}
			dims := append(append([]string(nil), p.Space.Dims...), q.Space.Dims...)
			diags = decideViolation(diags, mapAsSet(shared), dims, Diagnostic{
				Kind: KindScheduleNotInjective, Severity: Error, Statement: p.Name, AccessIndex: -1,
				Message: fmt.Sprintf("instances of %s and %s share a schedule time stamp", p.Name, q.Name),
			})
		}
	}
	return diags
}

// mapAsSet wraps the basics of a map into a set over the product space.
func mapAsSet(m presburger.Map) presburger.Set {
	var sets []presburger.BasicSet
	for _, bm := range m.Basics() {
		sets = append(sets, bm.AsSet())
	}
	if len(sets) == 0 {
		sp := presburger.NewSpace("In->Out", append(append([]string(nil), m.InSpace().Dims...), m.OutSpace().Dims...)...)
		return presburger.EmptySet(sp)
	}
	return presburger.SetFromBasics(sets...)
}

// decideViolation proves the violation set empty or appends the template
// diagnostic, with a witness point when one was found.
func decideViolation(diags []Diagnostic, viol presburger.Set, dims []string, template Diagnostic) []Diagnostic {
	point, status := firstPoint(viol)
	switch status {
	case witnessEmpty:
		return diags
	case witnessUndecided:
		template.Kind = KindUnverifiable
		template.Severity = Warning
		template.Message = fmt.Sprintf("could not decide: %s", template.Message)
		return append(diags, template)
	}
	template.Witness = point
	template.WitnessDims = dims
	return append(diags, template)
}
