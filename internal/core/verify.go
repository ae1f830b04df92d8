package core

import (
	"errors"
	"fmt"
	"strings"

	"haystack/internal/scop"
	"haystack/internal/scopcheck"
)

// ErrInvalidProgram reports that the static verifier (internal/scopcheck)
// rejected the program before the analysis ran. Use errors.As with
// *InvalidProgramError to inspect the individual findings.
var ErrInvalidProgram = errors.New("core: program failed static verification")

// InvalidProgramError carries the scopcheck diagnostics that failed the
// pre-flight verification of a program.
type InvalidProgramError struct {
	Program     string
	Diagnostics []scopcheck.Diagnostic
}

func (e *InvalidProgramError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: %s:", ErrInvalidProgram, e.Program)
	for _, d := range e.Diagnostics {
		fmt.Fprintf(&b, "\n  %s", d)
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrInvalidProgram) work.
func (e *InvalidProgramError) Unwrap() error { return ErrInvalidProgram }

// extract builds the polyhedral description of prog — once per analysis —
// and verifies that same object with the static checker before the pipeline
// runs on it. Structural findings (the walk BuildPoly starts with) and
// Error-severity semantic findings abort the analysis with an
// *InvalidProgramError; warnings (empty domains, undecidable properties) do
// not block — the analysis is still well-defined on such programs.
func extract(prog *scop.Program) (*scop.PolyInfo, error) {
	info, err := scop.BuildPoly(prog)
	if err != nil {
		return nil, &InvalidProgramError{Program: prog.Name, Diagnostics: scopcheck.Structural(err)}
	}
	var errs []scopcheck.Diagnostic
	for _, d := range scopcheck.CheckPoly(info) {
		if d.Severity == scopcheck.Error {
			errs = append(errs, d)
		}
	}
	if len(errs) > 0 {
		return nil, &InvalidProgramError{Program: prog.Name, Diagnostics: errs}
	}
	return info, nil
}
