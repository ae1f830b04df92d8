package presburger

// DiffRowOps runs the differential row-kernel oracle (rowops_test.go) on a
// basic set, so the external tests can feed it their seed corpora.
func DiffRowOps(bs BasicSet) error { return diffRowOps(&bs.b) }

// DiffPredicates runs the heap oracle of the pooled-scratch predicates
// (predicates_test.go) on a basic set.
func DiffPredicates(bs BasicSet) error { return diffPredicates(&bs.b) }
