// Package scopcheck statically verifies static control programs before the
// symbolic cache model runs on them. It is the validation layer between a
// program source — the builder DSL today, user-submitted or fuzzer-generated
// SCoPs tomorrow — and the Presburger machinery, which silently computes
// garbage on malformed input.
//
// The checker runs two passes. The structural pass is scop's own program
// walk (scop.Program.Validate, which scop.BuildPoly runs): it reports
// well-formedness violations (undeclared arrays, subscript arity
// mismatches, dangling variables, duplicate names) without any polyhedral
// machinery, and Structural turns its findings into diagnostics. The
// semantic pass (CheckPoly) takes the polyhedral description and uses the
// Presburger engine itself to prove, per statement:
//
//   - every array access stays inside the declared extents; a violation is
//     reported with a concrete counterexample point obtained by
//     lexicographic minimization (the first failing instance in execution
//     order of the loop nest),
//   - the schedule is total (every domain point has a time stamp), single
//     valued, and injective across all statements (no two instances share a
//     time stamp),
//   - iteration domains are non-empty,
//   - the context set is satisfiable and bounds every parameter from below.
//
// Diagnostics are structured ([]Diagnostic with kind, severity, statement,
// and witness point), so callers can render, filter, or assert on them. The
// cache model (internal/core) verifies every program it analyzes: it builds
// the polyhedral description once and runs CheckPoly on it. The
// cmd/scopcheck CLI and the -check flag of cmd/haystack run Check directly.
package scopcheck

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"haystack/internal/scop"
)

// Kind classifies a diagnostic.
type Kind string

// The diagnostic kinds. Structural kinds come from scop's program walk,
// semantic kinds from the Presburger pass.
const (
	// KindOutOfBounds reports an array access that leaves the declared
	// extent of the array for some reachable statement instance.
	KindOutOfBounds Kind = "out-of-bounds"
	// KindScheduleNotTotal reports a statement instance without a schedule
	// time stamp.
	KindScheduleNotTotal Kind = "schedule-not-total"
	// KindScheduleNotSingleValued reports a statement instance with more
	// than one schedule time stamp.
	KindScheduleNotSingleValued Kind = "schedule-not-single-valued"
	// KindScheduleNotInjective reports two distinct statement instances
	// sharing one schedule time stamp.
	KindScheduleNotInjective Kind = "schedule-not-injective"
	// KindEmptyDomain reports a statement whose iteration domain has no
	// integer points: the statement never executes.
	KindEmptyDomain Kind = "empty-domain"
	// KindInfeasibleContext reports a context set without integer points:
	// no parameter values satisfy the declared constraints.
	KindInfeasibleContext Kind = "infeasible-context"
	// KindUnboundedParameter reports a parameter the context set does not
	// bound from below (the parametric counting machinery needs a least
	// value per parameter).
	KindUnboundedParameter Kind = "unbounded-parameter"
	// KindUnverifiable reports a property the engine could neither prove
	// nor refute (an operation left the supported fragment).
	KindUnverifiable Kind = "unverifiable"

	// The structural kinds are scop's finding kinds (documented at
	// scop.KindUndeclaredArray and its siblings), spelled once there.
	KindUndeclaredArray    Kind = scop.KindUndeclaredArray
	KindSubscriptArity     Kind = scop.KindSubscriptArity
	KindDanglingVariable   Kind = scop.KindDanglingVariable
	KindDuplicateStatement Kind = scop.KindDuplicateStatement
	KindDuplicateParameter Kind = scop.KindDuplicateParameter
	KindShadowedParameter  Kind = scop.KindShadowedParameter
	KindNoAccesses         Kind = scop.KindNoAccesses
	KindBadArray           Kind = scop.KindBadArray
	KindBadContext         Kind = scop.KindBadContext
)

// Severity grades a diagnostic.
type Severity int

const (
	// Warning marks findings that do not make the analysis wrong but are
	// almost certainly not intended (an empty domain) or that the checker
	// could not decide (unverifiable properties).
	Warning Severity = iota
	// Error marks violations that make the program meaningless or the
	// analysis unsound.
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic is one structured finding of the checker.
type Diagnostic struct {
	Kind     Kind
	Severity Severity
	// Statement names the statement the finding concerns ("" for
	// program-level findings).
	Statement string
	// Array names the accessed array for access findings.
	Array string
	// AccessIndex is the position of the offending access within its
	// statement, -1 when not applicable.
	AccessIndex int
	// Message is the human-readable description.
	Message string
	// Witness is a concrete counterexample point when the engine found one
	// (for out-of-bounds: the lexicographically first failing instance).
	// WitnessDims names its coordinates.
	Witness     []int64
	WitnessDims []string
}

// String renders the diagnostic on one line.
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", d.Severity, d.Kind)
	if d.Statement != "" {
		fmt.Fprintf(&b, ": statement %s", d.Statement)
	}
	fmt.Fprintf(&b, ": %s", d.Message)
	if len(d.Witness) > 0 {
		b.WriteString(" at ")
		b.WriteString(renderWitness(d.Witness, d.WitnessDims))
	}
	return b.String()
}

// renderWitness formats a witness point as "(i=4, j=0)".
func renderWitness(point []int64, dims []string) string {
	parts := make([]string, len(point))
	for i, v := range point {
		if i < len(dims) && dims[i] != "" {
			parts[i] = fmt.Sprintf("%s=%d", dims[i], v)
		} else {
			parts[i] = fmt.Sprintf("%d", v)
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// HasErrors reports whether any diagnostic has Error severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Check validates a program: the structural walk first (through
// scop.BuildPoly), then — when the structure is sound — the semantic
// Presburger pass over the polyhedral description. A nil or empty result
// means the program verified clean.
func Check(prog *scop.Program) []Diagnostic {
	info, err := scop.BuildPoly(prog)
	if err != nil {
		return Structural(err)
	}
	return CheckPoly(info)
}

// Structural turns a structural rejection — the *scop.ValidationError that
// scop.Program.Validate and scop.BuildPoly fail with — into one Error
// diagnostic per finding, sorted like every result of the package. It
// panics on any other error: neither function returns one.
func Structural(err error) []Diagnostic {
	var ve *scop.ValidationError
	if !errors.As(err, &ve) {
		panic(fmt.Sprintf("scopcheck: %v is not a structural finding", err))
	}
	diags := make([]Diagnostic, len(ve.Findings))
	for i, f := range ve.Findings {
		diags[i] = Diagnostic{Kind: Kind(f.Kind), Severity: Error, Statement: f.Statement,
			Array: f.Array, AccessIndex: f.AccessIndex, Message: f.Message}
	}
	return sortDiags(diags)
}

// sortDiags orders diagnostics deterministically: errors before warnings,
// then by statement, kind, and message.
func sortDiags(diags []Diagnostic) []Diagnostic {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Statement != b.Statement {
			return a.Statement < b.Statement
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Message < b.Message
	})
	return diags
}
