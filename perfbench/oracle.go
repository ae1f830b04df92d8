package main

import (
	"fmt"
	"slices"
	"time"

	"haystack/internal/core"
	"haystack/internal/scop"
)

// answer is the part of a result the oracle checks: the trace length, the
// compulsory misses and the total misses of every level.
type answer struct {
	Accesses   int64   `json:"accesses"`
	Compulsory int64   `json:"compulsory"`
	Misses     []int64 `json:"misses"`
}

func answerOf(res *core.Result) answer {
	a := answer{Accesses: res.TotalAccesses, Compulsory: res.CompulsoryMisses}
	for _, lv := range res.Levels {
		a.Misses = append(a.Misses, lv.TotalMisses)
	}
	return a
}

// check returns an error naming the first count of got that differs from
// want.
func check(got, want answer) error {
	switch {
	case got.Accesses != want.Accesses:
		return fmt.Errorf("accesses %d, want %d", got.Accesses, want.Accesses)
	case got.Compulsory != want.Compulsory:
		return fmt.Errorf("compulsory misses %d, want %d", got.Compulsory, want.Compulsory)
	case len(got.Misses) != len(want.Misses):
		return fmt.Errorf("%d levels, want %d", len(got.Misses), len(want.Misses))
	}
	for i := range got.Misses {
		if got.Misses[i] != want.Misses[i] {
			return fmt.Errorf("L%d misses %d, want %d", i+1, got.Misses[i], want.Misses[i])
		}
	}
	return nil
}

// Oracle methods, as reported per op.
const (
	bySimulation = "simulation"
	byConcrete   = "concrete"
)

// fullyAssocRef is the answer of one program for every capacity a workload
// queries, so that one trace replay or one concrete analysis serves all of
// the workload's hierarchies.
type fullyAssocRef struct {
	accesses, compulsory int64
	misses               map[int64]int64 // capacity in bytes -> total misses
}

func (r fullyAssocRef) answer(cfg core.Config) answer {
	a := answer{Accesses: r.accesses, Compulsory: r.compulsory}
	for _, size := range cfg.CacheSizes {
		a.Misses = append(a.Misses, r.misses[size])
	}
	return a
}

// oracle computes the expected answers outside the timed passes, by
// replaying the trace (core.SimulateReference for fully associative levels,
// core.SimulateSetAssocReference for set-associative ones) or, for a
// parametric binding too large to replay, by the concrete analysis of the
// instantiated program.
type oracle struct {
	opts  core.Options
	cache map[string]fullyAssocRef

	simTime     time.Duration // trace replays
	simAccesses int64         // accesses replayed
	concrete    time.Duration // concrete analyses
}

func newOracle(opts core.Options) *oracle {
	return &oracle{opts: opts, cache: map[string]fullyAssocRef{}}
}

// fullyAssoc replays prog once for all sizes (memoized by key) and returns
// the answer for cfg.
func (o *oracle) fullyAssoc(key string, prog *scop.Program, cfg core.Config, sizes []int64) (answer, error) {
	ref, ok := o.cache[key]
	if !ok {
		start := time.Now()
		sim, err := core.SimulateReference(prog, core.Config{LineSize: cfg.LineSize, CacheSizes: sizes})
		o.simTime += time.Since(start)
		if err != nil {
			return answer{}, fmt.Errorf("simulating %s: %w", key, err)
		}
		o.simAccesses += sim.TotalAccesses
		ref = fullyAssocRef{accesses: sim.TotalAccesses, compulsory: sim.CompulsoryMisses, misses: map[int64]int64{}}
		for i, size := range sizes {
			ref.misses[size] = sim.TotalMisses[i]
		}
		o.cache[key] = ref
	}
	return ref.answer(cfg), nil
}

// setAssoc replays prog through one LRU cache per set-associative level.
func (o *oracle) setAssoc(prog *scop.Program, cfg core.Config) (answer, error) {
	start := time.Now()
	sim, err := core.SimulateSetAssocReference(prog, cfg)
	o.simTime += time.Since(start)
	if err != nil {
		return answer{}, fmt.Errorf("simulating %s: %w", prog.Name, err)
	}
	o.simAccesses += sim.TotalAccesses
	return answer{Accesses: sim.TotalAccesses, Compulsory: sim.CompulsoryMisses, Misses: slices.Clone(sim.TotalMisses)}, nil
}

// concreteAnalysis analyzes the concrete program once for all sizes
// (memoized by key) and returns the answer for cfg. The concrete result must
// itself be exact.
func (o *oracle) concreteAnalysis(key string, prog *scop.Program, cfg core.Config, sizes []int64) (answer, error) {
	ref, ok := o.cache[key]
	if !ok {
		start := time.Now()
		dm, err := core.ComputeDistances(prog, cfg.LineSize, o.opts)
		var res *core.Result
		if err == nil {
			res, err = dm.CountMisses(core.Config{LineSize: cfg.LineSize, CacheSizes: sizes})
		}
		o.concrete += time.Since(start)
		if err != nil {
			return answer{}, fmt.Errorf("concrete analysis of %s: %w", key, err)
		}
		if res.Tier == core.TierBounded {
			return answer{}, fmt.Errorf("concrete analysis of %s is not exact: %s", key, firstLine(res.FallbackReason))
		}
		ref = fullyAssocRef{accesses: res.TotalAccesses, compulsory: res.CompulsoryMisses, misses: map[int64]int64{}}
		for i, size := range sizes {
			ref.misses[size] = res.Levels[i].TotalMisses
		}
		o.cache[key] = ref
	}
	return ref.answer(cfg), nil
}
