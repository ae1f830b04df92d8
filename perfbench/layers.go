package main

import (
	"time"

	"haystack/internal/core"
	"haystack/internal/parwork"
)

// metricDef names a reported metric. The lists below are the metrics of
// BENCHMARK.json, in its order.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

var endToEndDefs = []metricDef{
	{"wall_s", "s", "lower"},
	{"geomean_op_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"exact_frac", "ratio", "higher"},
}

var perLayerDefs = []metricDef{
	{"scopcheck.check_s", "s", "lower"},
	{"scop.build_poly_s", "s", "lower"},
	{"core.compute_distances_s", "s", "lower"},
	{"core.setup_distances_s", "s", "lower"},
	{"core.stack_distances_s", "s", "lower"},
	{"core.stack_distances_cpu_s", "s", "lower"},
	{"core.stack_distances_allocs", "count", "lower"},
	{"core.distance_pieces", "count", "lower"},
	{"core.compulsory_s", "s", "lower"},
	{"lexmin.lexmax_s", "s", "lower"},
	{"lexmin.lexmax_basic_maps_in", "count", "lower"},
	{"lexmin.lexmax_basic_maps_out", "count", "lower"},
	{"lexmin.lexmax_share", "ratio", "lower"},
	{"presburger.compose_s", "s", "lower"},
	{"presburger.coalesce_s", "s", "lower"},
	{"presburger.peak_basic_maps", "count", "lower"},
	{"presburger.coalesce_shrink", "ratio", "lower"},
	{"presburger.coalesce_hits", "count", "higher"},
	{"presburger.arena_hit_ratio", "ratio", "higher"},
	{"core.count_misses_s", "s", "lower"},
	{"core.count_misses_cpu_s", "s", "lower"},
	{"core.counted_pieces", "count", "lower"},
	{"core.affine_pieces", "count", "higher"},
	{"core.non_affine_pieces", "count", "lower"},
	{"core.equalization_splits", "count", "lower"},
	{"core.rasterization_splits", "count", "lower"},
	{"core.enumerated_points", "count", "lower"},
	{"counting.budget_units", "count", "lower"},
	{"core.setassoc_count_s", "s", "lower"},
	{"core.setassoc_sets", "count", "lower"},
	{"core.setassoc_set_pieces", "count", "lower"},
	{"core.parametric_eval_s", "s", "lower"},
	{"core.parametric_build_s", "s", "lower"},
	{"core.parametric_first_eval_s", "s", "lower"},
	{"core.parametric_residual_pieces", "count", "lower"},
	{"parwork.busy_frac", "ratio", "higher"},
	{"parwork.steals", "count", "lower"},
	{"parwork.splits", "count", "lower"},
	{"parwork.cpu_per_wall_distances", "ratio", "higher"},
	{"parwork.cpu_per_wall_count", "ratio", "higher"},
	{"cachesim.reference_s", "s", "lower"},
	{"cachesim.accesses_per_s", "1/s", "higher"},
	{"runtime.allocs", "count", "lower"},
	{"runtime.alloc_bytes", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_s", "s", "lower"},
	{"runtime.peak_rss_mb", "MB", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
}

// layerAcc accumulates the counters of one traced pass.
type layerAcc map[string]float64

func (a layerAcc) add(name string, v float64) { a[name] += v }

func (a layerAcc) max(name string, v float64) {
	if v > a[name] {
		a[name] = v
	}
}

// addResult adds the counters an op's result reports in Result.Stats.
func (a layerAcc) addResult(res *core.Result) {
	st := res.Stats
	a.add("core.distance_pieces", float64(st.DistancePieces))
	a.add("core.counted_pieces", float64(st.CountedPieces))
	a.add("core.affine_pieces", float64(st.AffinePieces))
	a.add("core.non_affine_pieces", float64(st.NonAffinePieces))
	a.add("core.equalization_splits", float64(st.EqualizationSplits))
	a.add("core.rasterization_splits", float64(st.RasterizationSplits))
	a.add("core.enumerated_points", float64(st.PartialEnumerationPoints+st.FullEnumerationPoints))
	a.add("counting.budget_units", float64(st.BudgetUsed))
	a.max("presburger.peak_basic_maps", float64(st.PeakBasicMaps))
	a.add("presburger.basic_maps_before", float64(st.BasicMapsBeforeCoalesce))
	a.add("presburger.basic_maps_after", float64(st.BasicMapsAfterCoalesce))
	a.add("presburger.coalesce_hits", float64(st.CoalesceDedup+st.CoalesceSubsumed+st.CoalesceAdjacent+st.CoalesceRedundantCons))
	a.add("presburger.arena_hits", float64(st.ArenaHits))
	a.add("presburger.arena_misses", float64(st.ArenaMisses))
	var busy time.Duration
	for _, d := range st.CapacityWorkerTime {
		busy += d
	}
	a.add("parwork.busy_s", busy.Seconds())
	a.add("parwork.capacity_s", st.CapacityTime.Seconds()*float64(st.CapacityWorkers))
	for _, sa := range st.SetAssoc {
		a.add("core.setassoc_sets", float64(sa.Sets))
		for _, n := range sa.SetPieces {
			a.add("core.setassoc_set_pieces", float64(n))
		}
	}
}

// spanTotals sums the wall time, CPU time and allocations of the spans of
// each name.
type spanTotals map[string]usage

func totalsOf(spans []span) spanTotals {
	t := spanTotals{}
	for _, s := range spans {
		u := t[s.Name]
		u.Wall += s.dur()
		u.CPU += s.CPU
		u.Allocs += s.Allocs
		t[s.Name] = u
	}
	return t
}

func (t spanTotals) wall(names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		d += t[n].Wall
	}
	return d.Seconds()
}

func (t spanTotals) cpu(names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		d += t[n].CPU
	}
	return d.Seconds()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// passLayerMetrics derives the per-layer metrics of one traced pass from its
// spans, the counters its ops added, its runtime usage and the executor's
// scheduling counters over the pass.
func passLayerMetrics(spans []span, acc layerAcc, pass usage, pool parwork.PoolStats) map[string]float64 {
	t := totalsOf(spans)
	countSpans := []string{"core.count_misses", "core.setassoc_count", "core.parametric_eval"}
	m := map[string]float64{
		"scopcheck.check_s":               t.wall("scopcheck.check"),
		"scop.build_poly_s":               t.wall("scop.build_poly"),
		"core.compute_distances_s":        t.wall("core.compute_distances"),
		"core.stack_distances_s":          t.wall("core.stack_distances"),
		"core.stack_distances_cpu_s":      t.cpu("core.stack_distances"),
		"core.stack_distances_allocs":     float64(t["core.stack_distances"].Allocs),
		"core.compulsory_s":               t.wall("core.compulsory"),
		"lexmin.lexmax_s":                 t.wall("lexmin.lexmax"),
		"lexmin.lexmax_share":             ratio(t.wall("lexmin.lexmax"), t.wall("core.stack_distances")),
		"presburger.compose_s":            t.wall("presburger.compose"),
		"presburger.coalesce_s":           t.wall("presburger.coalesce"),
		"presburger.coalesce_shrink":      ratio(acc["presburger.basic_maps_after"], acc["presburger.basic_maps_before"]),
		"presburger.arena_hit_ratio":      ratio(acc["presburger.arena_hits"], acc["presburger.arena_hits"]+acc["presburger.arena_misses"]),
		"core.count_misses_s":             t.wall("core.count_misses"),
		"core.count_misses_cpu_s":         t.cpu("core.count_misses"),
		"core.setassoc_count_s":           t.wall("core.setassoc_count"),
		"core.parametric_eval_s":          t.wall("core.parametric_eval"),
		"parwork.busy_frac":               ratio(acc["parwork.busy_s"], acc["parwork.capacity_s"]),
		"parwork.steals":                  float64(pool.Steals),
		"parwork.splits":                  float64(pool.Splits),
		"parwork.cpu_per_wall_distances":  ratio(t.cpu("core.compute_distances"), t.wall("core.compute_distances")),
		"parwork.cpu_per_wall_count":      ratio(t.cpu(countSpans...), t.wall(countSpans...)),
		"runtime.allocs":                  float64(pass.Allocs),
		"runtime.alloc_bytes":             float64(pass.Bytes),
		"runtime.gc_cycles":               float64(pass.GCCycles),
		"runtime.gc_cpu_s":                pass.GCCPU,
		"lexmin.lexmax_basic_maps_in":     acc["lexmin.lexmax_basic_maps_in"],
		"lexmin.lexmax_basic_maps_out":    acc["lexmin.lexmax_basic_maps_out"],
		"core.parametric_residual_pieces": acc["core.parametric_residual_pieces"],
	}
	for _, name := range []string{
		"core.distance_pieces", "core.counted_pieces", "core.affine_pieces", "core.non_affine_pieces",
		"core.equalization_splits", "core.rasterization_splits", "core.enumerated_points",
		"counting.budget_units", "presburger.peak_basic_maps", "presburger.coalesce_hits",
		"core.setassoc_sets", "core.setassoc_set_pieces",
	} {
		m[name] = acc[name]
	}
	return m
}

// setupLayerMetrics derives the per-layer metrics of the set-up from the
// spans of its last repetition.
func setupLayerMetrics(spans []span) map[string]float64 {
	t := totalsOf(spans)
	return map[string]float64{
		"core.setup_distances_s":       t.wall("core.compute_distances"),
		"core.parametric_build_s":      t.wall("core.parametric_build"),
		"core.parametric_first_eval_s": t.wall("core.parametric_first_eval"),
	}
}
