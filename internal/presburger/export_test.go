package presburger

// DiffRowOps runs the differential row-kernel oracle (rowops_test.go) on a
// basic set, so the external tests can feed it their seed corpora.
func DiffRowOps(bs BasicSet) error { return diffRowOps(&bs.b) }
