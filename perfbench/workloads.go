package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"haystack/internal/core"
	"haystack/internal/lexmin"
	"haystack/internal/parwork"
	"haystack/internal/polybench"
	"haystack/internal/presburger"
	"haystack/internal/scop"
	"haystack/internal/scopcheck"
)

const lineSize = 64

// The hierarchies the workloads query: the paper's test system, a small
// fully associative hierarchy with many capacity misses, and the
// set-associative conformance hierarchy.
var (
	paperFA = core.Config{LineSize: lineSize, CacheSizes: []int64{32 << 10, 1 << 20}}
	smallFA = core.Config{LineSize: lineSize, CacheSizes: []int64{512, 2 << 10}}
	confSA  = core.Config{LineSize: lineSize, CacheSizes: []int64{512, 2 << 10}, Ways: []int{4, 8}}
	// allFASizes lists every fully associative capacity, so that one trace
	// replay answers both hierarchies.
	allFASizes = []int64{512, 2 << 10, 32 << 10, 1 << 20}
)

// env is what every op runs with: one executor shared by all analyses,
// which run one at a time.
type env struct {
	ctx     context.Context
	ex      parwork.Exec
	workers int
	opts    core.Options
	seed    uint64
	speed   *speedLog
	// steps are the steps of the set-up being timed; the last is open.
	steps []interval
}

// lap ends a step of the set-up being timed, if any, and times the
// reference computation before the next step starts, outside the set-up's
// time, so that a long set-up is scaled by the machine's speed while each
// of its steps ran.
func (e *env) lap() {
	n := len(e.steps)
	if n == 0 {
		return
	}
	e.steps[n-1].to = e.speed.now()
	e.speed.calibrate()
	e.steps = append(e.steps, interval{from: e.speed.now()})
}

// op is one public call whose result is verified.
type op struct {
	id string
	// run makes the op's calls. With a non-nil tracer it also calls the
	// layers one by one so that each gets a span, and adds the counters of
	// its result to acc.
	run func(t *tracer, acc layerAcc) (*core.Result, error)
	// expect returns the oracle's answer and how it was obtained.
	expect func(o *oracle) (answer, string, error)
}

// workload is one set of inputs. setup builds its programs and models and
// returns its ops; it is the timed set-up and may run several times.
type workload struct {
	name  string
	why   string
	setup func(e *env, t *tracer) ([]op, error)
}

var workloads = []workload{
	{
		name:  "fa-distances",
		why:   "the distance phase (lexmax, compositions, coalescing, touched-line counting) of stencil kernels; adi takes the trace fallback",
		setup: setupFADistances,
	},
	{
		name:  "fa-sweep",
		why:   "design-space sweep over prebuilt distance models: fully associative capacity counting only; durbin at 512 B/2 KiB falls back",
		setup: setupFASweep,
	},
	{
		name:  "sa-sweep",
		why:   "set-associative counting (per-set summand bags) over prebuilt distance models, bypassing the fully associative counter",
		setup: setupSASweep,
	},
	{
		name:  "param-sizes",
		why:   "problem-size axis: parametric model evaluation at fixed and seed-drawn bindings, with residual pieces counted per size",
		setup: setupParamSizes,
	},
}

// Kernel lists of the workloads, all at MINI. They are cut so that a run
// makes several passes in its seconds; README.md lists what was left out.
var (
	faDistanceKernels = []string{"adi", "fdtd-2d", "jacobi-2d"}
	faSweepKernels    = []string{"covariance", "durbin", "symm", "syr2k"}
	saSweepKernels    = []string{"deriche", "gemm", "gramschmidt", "trmm"}
)

// paramKernels are the parametric kernels, the largest standard size each
// is evaluated at, and the number of seed-drawn bindings each gets besides
// the standard sizes. trmm's Eval grows with the problem size: at LARGE one
// Eval takes 3-5 s and its concrete check longer, more than the rest of a
// pass, and drawn trmm bindings would make the work of a pass depend on the
// seed. gemm's Eval costs the same at every size.
var paramKernels = []struct {
	name    string
	largest polybench.Size
	drawn   int
}{{"gemm", polybench.Large, 2}, {"trmm", polybench.Medium, 0}}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func buildMini(name string) (*scop.Program, error) {
	k, ok := polybench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", name)
	}
	return k.Build(polybench.Mini), nil
}

func setupFADistances(e *env, t *tracer) ([]op, error) {
	var ops []op
	for _, name := range faDistanceKernels {
		prog, err := buildMini(name)
		if err != nil {
			return nil, err
		}
		analyze := func(t *tracer) (*core.Result, error) {
			var dm *core.DistanceModel
			err := t.call("core.compute_distances", func() (err error) {
				dm, err = core.ComputeDistancesContext(e.ctx, prog, lineSize, e.opts)
				return err
			})
			if err != nil {
				return nil, err
			}
			return countMisses(e, t, dm, paperFA, "core.count_misses")
		}
		if len(ops) == 0 {
			// Warm-up: one analysis of the first kernel fills the
			// executor's and the set algebra's free lists and sizes the
			// heap before anything is timed.
			idx := t.begin("warmup", name)
			_, err := analyze(t)
			t.end(idx, err)
			if err != nil {
				return nil, fmt.Errorf("warm-up analysis of %s: %w", name, err)
			}
		}
		ops = append(ops, op{
			id: name,
			run: func(t *tracer, acc layerAcc) (*core.Result, error) {
				if t != nil {
					traceDistanceStages(e, t, acc, prog)
				}
				return analyze(t)
			},
			expect: func(o *oracle) (answer, string, error) {
				a, err := o.fullyAssoc(name, prog, paperFA, paperFA.CacheSizes)
				return a, bySimulation, err
			},
		})
	}
	return ops, nil
}

// traceDistanceStages calls the stages of the distance phase one by one
// through the public functions of each layer, so that each gets its own
// span: verification, polyhedral extraction, the previous-access input of
// the lexmax rebuilt by compositions and coalescing, the lexmax itself, the
// stack distances and the compulsory misses. A failing stage is recorded on
// its span; the op's result comes from the calls that follow.
func traceDistanceStages(e *env, t *tracer, acc layerAcc, prog *scop.Program) {
	_ = t.call("scopcheck.check", func() error {
		if diags := scopcheck.Check(prog); scopcheck.HasErrors(diags) {
			return fmt.Errorf("scopcheck: %s", diags[0])
		}
		return nil
	})
	var info *scop.PolyInfo
	if err := t.call("scop.build_poly", func() (err error) {
		info, err = scop.BuildPoly(prog)
		return err
	}); err != nil {
		return
	}
	var backward presburger.Map
	err := t.call("presburger.compose", func() error {
		S := info.Schedule()
		toLine, err := S.Reverse().ApplyRange(info.LineAccessMap(lineSize))
		if err != nil {
			return err
		}
		equal, err := toLine.ApplyRange(toLine.Reverse())
		if err != nil {
			return err
		}
		m, ok := equal.Get(scop.ScheduleSpaceName, scop.ScheduleSpaceName)
		if !ok {
			return errors.New("empty equal map")
		}
		backward = m.Intersect(presburger.LexGT(info.ScheduleSpace()))
		return nil
	})
	if err == nil {
		_ = t.call("presburger.coalesce", func() error {
			backward = backward.Coalesce()
			return nil
		})
		acc.add("lexmin.lexmax_basic_maps_in", float64(len(backward.Basics())))
		var prev presburger.Map
		if t.call("lexmin.lexmax", func() (err error) {
			prev, err = lexmin.MapLexmaxExec(e.ctx, backward, e.ex)
			return err
		}) == nil {
			acc.add("lexmin.lexmax_basic_maps_out", float64(len(prev.Basics())))
		}
	}
	_ = t.call("core.stack_distances", func() error {
		_, err := core.ComputeStackDistancesWith(info, lineSize, e.workers)
		return err
	})
	_ = t.call("core.compulsory", func() error {
		_, _, err := core.CountCompulsoryMisses(info, lineSize)
		return err
	})
}

func countMisses(e *env, t *tracer, dm *core.DistanceModel, cfg core.Config, spanName string) (*core.Result, error) {
	var res *core.Result
	err := t.call(spanName, func() (err error) {
		res, err = dm.CountMissesExec(e.ctx, cfg, e.ex)
		return err
	})
	return res, err
}

// buildModels builds the distance model of every kernel, one span each.
func buildModels(e *env, t *tracer, names []string) (map[string]*scop.Program, map[string]*core.DistanceModel, error) {
	progs := map[string]*scop.Program{}
	models := map[string]*core.DistanceModel{}
	for _, name := range names {
		prog, err := buildMini(name)
		if err != nil {
			return nil, nil, err
		}
		idx := t.begin("core.compute_distances", name)
		dm, err := core.ComputeDistancesContext(e.ctx, prog, lineSize, e.opts)
		t.end(idx, err)
		if err != nil {
			return nil, nil, fmt.Errorf("distance model of %s: %w", name, err)
		}
		progs[name], models[name] = prog, dm
		e.lap()
	}
	return progs, models, nil
}

func setupFASweep(e *env, t *tracer) ([]op, error) {
	progs, models, err := buildModels(e, t, faSweepKernels)
	if err != nil {
		return nil, err
	}
	var ops []op
	for _, name := range faSweepKernels {
		prog, dm := progs[name], models[name]
		for _, cfg := range []core.Config{smallFA, paperFA} {
			ops = append(ops, op{
				id: name + "@" + cfgName(cfg),
				run: func(t *tracer, _ layerAcc) (*core.Result, error) {
					return countMisses(e, t, dm, cfg, "core.count_misses")
				},
				expect: func(o *oracle) (answer, string, error) {
					a, err := o.fullyAssoc(name, prog, cfg, allFASizes)
					return a, bySimulation, err
				},
			})
		}
	}
	return ops, nil
}

func setupSASweep(e *env, t *tracer) ([]op, error) {
	progs, models, err := buildModels(e, t, saSweepKernels)
	if err != nil {
		return nil, err
	}
	var ops []op
	for _, name := range saSweepKernels {
		prog, dm := progs[name], models[name]
		ops = append(ops, op{
			id: name + "@" + cfgName(confSA),
			run: func(t *tracer, _ layerAcc) (*core.Result, error) {
				return countMisses(e, t, dm, confSA, "core.setassoc_count")
			},
			expect: func(o *oracle) (answer, string, error) {
				a, err := o.setAssoc(prog, confSA)
				return a, bySimulation, err
			},
		})
	}
	return ops, nil
}

func setupParamSizes(e *env, t *tracer) ([]op, error) {
	rng := bindingSource(e.seed)
	var ops []op
	for _, kernel := range paramKernels {
		name := kernel.name
		pk, ok := polybench.ParametricByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown parametric kernel %q", name)
		}
		prog := pk.Build()
		idx := t.begin("core.parametric_build", name)
		pm, err := core.ComputeParametricModelContext(e.ctx, prog, lineSize, e.opts)
		t.end(idx, err)
		if err != nil {
			return nil, fmt.Errorf("parametric model of %s: %w", name, err)
		}
		e.lap()
		// One warming Eval per hierarchy derives the per-capacity
		// parametric counts that every later Eval reuses.
		for _, cfg := range []core.Config{smallFA, paperFA} {
			idx := t.begin("core.parametric_first_eval", name)
			_, err := pm.Eval(cfg, pk.Bindings(polybench.Mini))
			t.end(idx, err)
			if err != nil {
				return nil, fmt.Errorf("first evaluation of %s: %w", name, err)
			}
			e.lap()
		}
		small := pk.Bindings(polybench.Small)
		for _, b := range paramBindings(rng, pk, kernel.largest, kernel.drawn) {
			for _, cfg := range []core.Config{smallFA, paperFA} {
				key := name + "[" + bindingName(b) + "]"
				ops = append(ops, op{
					id: key + "@" + cfgName(cfg),
					run: func(t *tracer, acc layerAcc) (*core.Result, error) {
						var res *core.Result
						err := t.call("core.parametric_eval", func() (err error) {
							res, err = pm.Eval(cfg, b)
							return err
						})
						if t != nil {
							acc.add("core.parametric_residual_pieces", float64(pm.ResidualPieces()))
						}
						return res, err
					},
					expect: func(o *oracle) (answer, string, error) {
						inst, err := prog.Instantiate(b)
						if err != nil {
							return answer{}, "", err
						}
						if within(b, small) {
							a, err := o.fullyAssoc(key, inst, cfg, allFASizes)
							return a, bySimulation, err
						}
						a, err := o.concreteAnalysis(key, inst, cfg, allFASizes)
						return a, byConcrete, err
					},
				})
			}
		}
	}
	return ops, nil
}

// bindingSource and orderSource are the two independent random streams of a
// seed: the drawn parametric bindings and the op order of every pass.
func bindingSource(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 1)) }

func orderSource(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 2)) }

// paramBindings returns the standard sizes MINI to largest followed by n
// seed-drawn bindings: each parameter log-uniform between its MINI and
// LARGE values.
func paramBindings(rng *rand.Rand, pk polybench.ParametricKernel, largest polybench.Size, n int) []map[string]int64 {
	var out []map[string]int64
	for s := polybench.Mini; s <= largest; s++ {
		out = append(out, pk.Bindings(s))
	}
	lo, hi := pk.Bindings(polybench.Mini), pk.Bindings(polybench.Large)
	params := sortedParams(lo)
	for i := 0; i < n; i++ {
		b := map[string]int64{}
		for _, p := range params {
			l, h := math.Log(float64(lo[p])), math.Log(float64(hi[p]))
			b[p] = int64(math.Round(math.Exp(l + rng.Float64()*(h-l))))
		}
		out = append(out, b)
	}
	return out
}

func sortedParams(b map[string]int64) []string {
	params := make([]string, 0, len(b))
	for p := range b {
		params = append(params, p)
	}
	sort.Strings(params)
	return params
}

func bindingName(b map[string]int64) string {
	var parts []string
	for _, p := range sortedParams(b) {
		parts = append(parts, fmt.Sprintf("%s=%d", p, b[p]))
	}
	return strings.Join(parts, ",")
}

// within reports whether no parameter of b exceeds its value in limit: the
// oracle replays the trace of such a binding and analyzes larger ones
// concretely.
func within(b, limit map[string]int64) bool {
	for p, v := range b {
		if v > limit[p] {
			return false
		}
	}
	return true
}

func cfgName(cfg core.Config) string {
	var parts []string
	for i, size := range cfg.CacheSizes {
		s := fmt.Sprintf("%dKiB", size>>10)
		if size < 1<<10 {
			s = fmt.Sprintf("%dB", size)
		} else if size >= 1<<20 {
			s = fmt.Sprintf("%dMiB", size>>20)
		}
		if w := cfg.WaysOf(i); w > 0 {
			s += fmt.Sprintf("/%dway", w)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ",")
}
