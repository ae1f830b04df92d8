package core

import (
	"context"
	"maps"
	"slices"
	"testing"

	"haystack/internal/budget"
	"haystack/internal/parwork"
	"haystack/internal/polybench"
)

// splitPin is what the capacity counter answers for one kernel at MINI with
// fully associative {512 B, 2 KiB} levels (8 and 32 lines): the capacity
// misses of both levels and the counter's statistics.
type splitPin struct {
	capacity                [2]int64
	counted, affine, nonAff int
	eq, ras                 int
	partial, full           int64
}

// splitPins are the six MINI kernels whose distance pieces split by
// equalization at {512 B, 2 KiB}, recorded while the counter still counted
// a piece's split sub-pieces inside the piece's own work item (nested on
// the pool in exact mode, serially otherwise). Splitting every piece before
// the fan-out changes the schedule only, so every figure must stay.
var splitPins = map[string]splitPin{
	"correlation": {capacity: [2]int64{23730, 23479}, counted: 878, affine: 159, nonAff: 133, eq: 5, partial: 708},
	"covariance":  {capacity: [2]int64{23572, 23448}, counted: 715, affine: 144, nonAff: 44, eq: 2, partial: 567},
	"symm":        {capacity: [2]int64{12414, 6143}, counted: 530, affine: 150, nonAff: 146, eq: 51, partial: 270, full: 272},
	"syr2k":       {capacity: [2]int64{18519, 14515}, counted: 349, affine: 70, nonAff: 37, eq: 9, partial: 261},
	"syrk":        {capacity: [2]int64{9505, 2157}, counted: 203, affine: 49, nonAff: 11, eq: 6, partial: 142},
	"trmm":        {capacity: [2]int64{11031, 4588}, counted: 195, affine: 31, nonAff: 36, eq: 12, partial: 140},
}

// paramPins are the parametric models' affine (ParametricPieces) and
// residual (ResidualPieces) leaf counts, recorded while the parametric
// classification had a split of its own.
var paramPins = map[string][2]int{
	"gemm":      {60, 18},
	"trmm":      {49, 52},
	"jacobi-2d": {1359, 847},
}

// TestSplitLeafSchedulePinned pins the split-then-fan-out schedule of the
// capacity counter: on the kernels that split, the counts and counter
// statistics equal the recorded ones on one and four workers, in ModeExact
// and in ModeBounded with an unlimited budget (where no leaf degrades).
// The parametric models, whose pieces go through the same split, keep
// their affine and residual piece counts.
func TestSplitLeafSchedulePinned(t *testing.T) {
	lines := []int64{512 / 64, 2048 / 64}
	for _, name := range slices.Sorted(maps.Keys(splitPins)) {
		want := splitPins[name]
		t.Run(name, func(t *testing.T) {
			k, ok := polybench.ByName(name)
			if !ok {
				t.Fatalf("no kernel %s", name)
			}
			opts := DefaultOptions()
			opts.Mode = ModeExact
			opts.Parallelism = 2
			dm, err := ComputeDistances(k.Build(polybench.Mini), 64, opts)
			if err != nil {
				t.Fatalf("ComputeDistances: %v", err)
			}
			for _, mode := range []Mode{ModeExact, ModeBounded} {
				for _, workers := range []int{1, 4} {
					o := opts
					o.Mode = mode
					stats := Stats{NonAffineByAffineDims: map[int]int{}}
					ex, release := parwork.NewExec(workers)
					ctx := context.Background()
					out, err := newCapacityCounter(o, &stats).Count(ctx, ex, budget.New(ctx, 0), dm.distances, lines)
					release()
					if err != nil {
						t.Fatalf("%v, %d workers: %v", mode, workers, err)
					}
					if len(out.degraded) > 0 {
						t.Errorf("%v, %d workers: unlimited budget degraded %v", mode, workers, out.degraded)
					}
					got := splitPin{
						counted: stats.CountedPieces, affine: stats.AffinePieces, nonAff: stats.NonAffinePieces,
						eq: stats.EqualizationSplits, ras: stats.RasterizationSplits,
						partial: stats.PartialEnumerationPoints, full: stats.FullEnumerationPoints,
					}
					for l, iv := range out.bounds {
						if !iv.IsExact() {
							t.Errorf("%v, %d workers: L%d bounds %v are not exact", mode, workers, l+1, iv)
						}
						got.capacity[l] = iv.Hi
					}
					if got != want {
						t.Errorf("%v, %d workers:\n got %+v\nwant %+v", mode, workers, got, want)
					}
				}
			}
		})
	}
	for _, pk := range parametricKernelsUnderTest(t) {
		want, ok := paramPins[pk.Name]
		if !ok {
			t.Errorf("no pinned piece counts for parametric kernel %s", pk.Name)
			continue
		}
		t.Run("parametric/"+pk.Name, func(t *testing.T) {
			pm, err := ComputeParametricModel(pk.Build(), 64, DefaultOptions())
			if err != nil {
				t.Fatalf("ComputeParametricModel: %v", err)
			}
			if got := [2]int{pm.ParametricPieces(), pm.ResidualPieces()}; got != want {
				t.Errorf("parametric/residual pieces %v, want %v", got, want)
			}
		})
	}
}
