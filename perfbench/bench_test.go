package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"haystack/internal/core"
	"haystack/internal/polybench"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := slices.Clone(tc.in)
		if got := median(in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		if !slices.Equal(in, tc.in) {
			t.Errorf("median reordered its input: %v", in)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1, 4, 16) = %v, want 4", got)
	}
	if got := geomean([]float64{0.5, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("geomean(0.5, 2) = %v, want 1", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean() = %v, want 0", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestScaledTotals: an op timed while the reference computation ran at
// half the reference speed reads half its raw time; the scale is the median
// of the timings within calWindow of the op (the 9x outlier does not move
// it), and the totals add per-op medians, not pass sums.
func TestScaledTotals(t *testing.T) {
	sec := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	speed := &speedLog{
		at:   []time.Duration{sec(1), sec(2), sec(3), sec(20), sec(21)},
		took: []time.Duration{2 * calNominal, 2 * calNominal, 9 * calNominal, calNominal, calNominal},
	}
	samples := [][]opSample{
		{{interval{sec(1), sec(1.4)}, sec(0.8)}, {interval{sec(20), sec(20.1)}, sec(0.2)}, {interval{sec(21), sec(21.3)}, sec(0.6)}},
		{{interval{sec(21), sec(21.05)}, sec(0.05)}},
	}
	var raw, scaled opTotals
	for _, s := range samples {
		raw.add(s, nil)
		scaled.add(s, speed)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !near(raw.wall, 0.35) || !near(raw.cpu, 0.65) {
		t.Errorf("raw totals wall %v cpu %v, want 0.35 and 0.65", raw.wall, raw.cpu)
	}
	if !near(scaled.wall, 0.25) || !near(scaled.cpu, 0.45) || !near(scaled.opWall[0], 0.2) {
		t.Errorf("scaled totals wall %v cpu %v op %v, want 0.25, 0.45 and 0.2", scaled.wall, scaled.cpu, scaled.opWall)
	}
	if got := calibrate(2); got <= 0 {
		t.Errorf("calibrate took %v", got)
	}
}

// TestSelfTimeOverlappingChildren: the parent covers [0,100); its children
// cover [10,40), [30,60) (overlapping the first) and [90,120) (running past
// the parent's end), so they cover 50+10 ms of it and its self time is
// 40 ms. Each child's self time is its own duration.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)},
		{ID: 4, Parent: 1, Name: "a", Start: ms(90), End: ms(120)},
	}
	computeSelf(spans)
	want := []time.Duration{ms(40), ms(30), ms(30), ms(30)}
	for i, s := range spans {
		if s.Self != want[i] {
			t.Errorf("span %d (%s) self = %v, want %v", s.ID, s.Name, s.Self, want[i])
		}
	}
	rows := stageSplit(spans, "pass")
	got := map[string]stageRow{}
	for _, r := range rows {
		got[r.Name] = r
	}
	if r := got["a"]; r.Calls != 2 || r.Self != ms(60) || math.Abs(r.Share-0.6) > 1e-12 {
		t.Errorf("stage a = %+v, want 2 calls, 60ms, share 0.6", r)
	}
	if r := got["pass"]; r.Self != ms(40) {
		t.Errorf("stage pass self = %v, want 40ms", r.Self)
	}
}

func TestStageSplitIgnoresSetup(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "setup", Start: ms(0), End: ms(50)},
		{ID: 2, Parent: 1, Name: "core.compute_distances", Start: ms(0), End: ms(50)},
		{ID: 3, Name: "pass", Start: ms(50), End: ms(60)},
		{ID: 4, Parent: 3, Name: "core.count_misses", Start: ms(50), End: ms(60)},
	}
	computeSelf(spans)
	for _, r := range stageSplit(spans, "pass") {
		if r.Name == "core.compute_distances" || r.Name == "setup" {
			t.Errorf("set-up span %s in the pass split", r.Name)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pass", "")
	opSpan := tr.begin("op", "gemm")
	_ = tr.call("core.count_misses", func() error { return nil })
	tr.end(opSpan, nil)
	tr.end(root, nil)
	if len(tr.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.spans))
	}
	stage := tr.spans[2]
	if stage.Parent != tr.spans[1].ID || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 {
		t.Errorf("wrong parents: %+v", tr.spans)
	}
	if stage.Op != "gemm" {
		t.Errorf("stage op = %q, want the op id inherited from its parent", stage.Op)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}

	var nilTracer *tracer
	called := false
	_ = nilTracer.call("x", func() error { called = true; return nil })
	if !called {
		t.Error("a nil tracer must still run the call")
	}
}

// TestOracleRejectsPerturbedCount analyzes gemm at MINI, checks it against
// the simulator, then perturbs each checked count by one.
func TestOracleRejectsPerturbedCount(t *testing.T) {
	k, _ := polybench.ByName("gemm")
	prog := k.Build(polybench.Mini)
	res, err := core.Analyze(prog, paperFA, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(core.DefaultOptions())
	want, err := o.fullyAssoc("gemm", prog, paperFA, allFASizes)
	if err != nil {
		t.Fatal(err)
	}
	got := answerOf(res)
	if err := check(got, want); err != nil {
		t.Fatalf("exact model rejected: %v", err)
	}
	perturb := []func(a *answer){
		func(a *answer) { a.Accesses++ },
		func(a *answer) { a.Compulsory-- },
		func(a *answer) { a.Misses[0]++ },
		func(a *answer) { a.Misses[1]-- },
		func(a *answer) { a.Misses = a.Misses[:1] },
	}
	for i, p := range perturb {
		bad := got
		bad.Misses = slices.Clone(got.Misses)
		p(&bad)
		if check(bad, want) == nil {
			t.Errorf("perturbation %d accepted: %+v", i, bad)
		}
	}

	// verify: the first pass pins the answer; a later pass must match it.
	var first *answer
	if err := verify(res, nil, want, nil, &first); err != nil {
		t.Fatalf("first pass rejected: %v", err)
	}
	wrong := *res
	wrong.Levels = slices.Clone(res.Levels)
	wrong.Levels[1].TotalMisses++
	if verify(&wrong, nil, want, nil, &first) == nil {
		t.Error("verify accepted a count that disagrees with the oracle")
	}
	if verify(res, nil, want, os.ErrNotExist, &first) == nil {
		t.Error("verify accepted an op the oracle could not answer")
	}
	pinned := want
	pinned.Misses = slices.Clone(want.Misses)
	pinned.Misses[0]++
	first = &pinned
	if err := verify(res, nil, want, nil, &first); err == nil || !strings.Contains(err.Error(), "first pass") {
		t.Errorf("verify accepted an answer that differs from the first pass: %v", err)
	}
}

func TestSeedDeterminism(t *testing.T) {
	orders := func(seed uint64) [][]int {
		rng := orderSource(seed)
		var out [][]int
		for i := 0; i < 3; i++ {
			out = append(out, rng.Perm(12))
		}
		return out
	}
	pk, _ := polybench.ParametricByName("gemm")
	bindings := func(seed uint64) []map[string]int64 {
		return paramBindings(bindingSource(seed), pk, polybench.Large, 2)
	}
	if !reflect.DeepEqual(orders(7), orders(7)) {
		t.Error("the same seed gave different op orders")
	}
	if reflect.DeepEqual(orders(7), orders(8)) {
		t.Error("different seeds gave the same op orders")
	}
	if !reflect.DeepEqual(bindings(7), bindings(7)) {
		t.Error("the same seed gave different bindings")
	}
	if reflect.DeepEqual(bindings(7), bindings(8)) {
		t.Error("different seeds gave the same bindings")
	}
	// The standard sizes lead, whatever the seed; drawn ones lie between
	// MINI and LARGE.
	b := bindings(9)
	if len(b) != 6 || !reflect.DeepEqual(b[0], pk.Bindings(polybench.Mini)) || !reflect.DeepEqual(b[3], pk.Bindings(polybench.Large)) {
		t.Fatalf("unexpected bindings %v", b)
	}
	lo, hi := pk.Bindings(polybench.Mini), pk.Bindings(polybench.Large)
	for _, d := range b[4:] {
		for p, v := range d {
			if v < lo[p] || v > hi[p] {
				t.Errorf("drawn %s=%d outside [%d, %d]", p, v, lo[p], hi[p])
			}
		}
	}
}

// TestBenchmarkFile checks that BENCHMARK.json names the workloads and
// metrics this program reports.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to this directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("workloads %v, program has %v", names, ours)
	}
	if !slices.Equal(spec.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end %v\nprogram has %v", spec.EndToEnd, endToEndDefs)
	}
	if !slices.Equal(spec.PerLayer, perLayerDefs) {
		t.Errorf("per_layer %v\nprogram has %v", spec.PerLayer, perLayerDefs)
	}
}
