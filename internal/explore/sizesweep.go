package explore

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"haystack/internal/core"
	"haystack/internal/parwork"
	"haystack/internal/scop"
)

// SizeEvaluation is the model result of one problem size of a size sweep.
type SizeEvaluation struct {
	// Bindings are the parameter values of this evaluation.
	Bindings map[string]int64
	// Result is the model outcome, bit-identical to a concrete core.Analyze
	// of the instantiated program.
	Result *core.Result
}

// SizeSweepStats describes the work a size sweep performed: the parametric
// model is computed exactly once, every size is an evaluation.
type SizeSweepStats struct {
	// Sizes is the number of evaluated parameter bindings.
	Sizes int
	// DistancePieces, ParametricPieces, and ResidualPieces describe the
	// shared model (see core.ParametricModel).
	DistancePieces   int
	ParametricPieces int
	ResidualPieces   int
	// ModelPhase is the wall-clock time of the one ComputeParametricModel
	// call; EvalPhase is the wall-clock time of evaluating all sizes.
	ModelPhase time.Duration
	EvalPhase  time.Duration
	TotalTime  time.Duration
}

// SizeSweepResult holds the evaluations of a size sweep in the order the
// bindings were given.
type SizeSweepResult struct {
	// Model is the shared parametric model (reusable for further Eval calls).
	Model       *core.ParametricModel
	Evaluations []SizeEvaluation
	Stats       SizeSweepStats
}

// SizeSweep evaluates a parametric program against one cache hierarchy at
// many problem sizes, sharing a single parametric analysis: the program is
// analyzed once symbolically in its parameters (core.ComputeParametricModel)
// and every size is an instantiation of the shared model. This is the
// problem-size analogue of Sweep's hierarchy sharing — where Sweep pays one
// distance phase for many hierarchies, SizeSweep pays one parametric
// analysis for many sizes.
//
// Evaluations fan out over the worker pool; results are bit-identical to a
// per-size core.Analyze at every parallelism level.
func SizeSweep(prog *scop.Program, cfg core.Config, sizes []map[string]int64, opts Options) (*SizeSweepResult, error) {
	start := time.Now()
	if !prog.IsParametric() {
		return nil, fmt.Errorf("explore: program %s has no parameters; use Sweep", prog.Name)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("explore: no sizes to evaluate")
	}
	tModel := time.Now()
	pm, err := core.ComputeParametricModel(prog, cfg.LineSize, opts.Analysis)
	if err != nil {
		return nil, fmt.Errorf("explore: parametric model of %s: %w", prog.Name, err)
	}
	modelPhase := time.Since(tModel)

	tEval := time.Now()
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	evals := make([]SizeEvaluation, len(sizes))
	ex, release := parwork.NewExec(min(workers, len(sizes)))
	defer release()
	err = ex.RunGroup(context.Background(), len(sizes), func(_ *parwork.Worker, idx int) error {
		res, err := pm.Eval(cfg, sizes[idx])
		if err != nil {
			return fmt.Errorf("explore: evaluating %s at %v: %w", prog.Name, sizes[idx], err)
		}
		evals[idx] = SizeEvaluation{Bindings: sizes[idx], Result: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SizeSweepResult{
		Model:       pm,
		Evaluations: evals,
		Stats: SizeSweepStats{
			Sizes:            len(sizes),
			DistancePieces:   pm.DistancePieces(),
			ParametricPieces: pm.ParametricPieces(),
			ResidualPieces:   pm.ResidualPieces(),
			ModelPhase:       modelPhase,
			EvalPhase:        time.Since(tEval),
			TotalTime:        time.Since(start),
		},
	}, nil
}
