// Command perfbench is the repository's benchmark. It runs one workload of
// the HayStack cache model in a single process, checks every answer against
// the simulator, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) with the last line of its output being
// one JSON object. See README.md in this directory.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"haystack/internal/core"
	"haystack/internal/parwork"
)

const (
	// Set-up is repeated up to maxSetupReps times, and again only while the
	// repetitions so far took less than setupBudget; setup_s is their median.
	maxSetupReps = 5
	setupBudget  = 4 * time.Second
	// minPasses untraced passes are always made, so that every run checks
	// that a pass reproduces the first pass's counts.
	minPasses = 2
	// runDeadline bounds the analyses of one run; an op still running then
	// fails with the context error.
	runDeadline = 150 * time.Second
	// outDir, relative to the working directory, receives the result and
	// span files.
	outDir = ".bench_build/perfbench-out"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: fa-distances, fa-sweep, sa-sweep or param-sizes")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the op order and the drawn parameter bindings")
	flag.IntVar(&cfg.seconds, "seconds", 10, "how long the passes of one run measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 makes a traced run that reports the per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// machineInfo is recorded with every result.
type machineInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpu_model"`
	Seed       uint64 `json:"seed"`
}

func machine(workers int, seed uint64) machineInfo {
	m := machineInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), Commit: "unknown", CPUModel: "unknown", Seed: seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				m.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				m.Commit += "+modified"
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// provenance records how the first pass answered an op.
type provenance struct {
	Op        string  `json:"op"`
	Tier      string  `json:"tier"`
	Fallback  bool    `json:"used_trace_fallback"`
	Reason    string  `json:"fallback_reason,omitempty"`
	Oracle    string  `json:"oracle"`
	MedianSec float64 `json:"median_s"`
	ScaledSec float64 `json:"scaled_median_s"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of the output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(cfg config, stdout io.Writer) error {
	wl, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	workers := runtime.NumCPU()
	ex, release := parwork.NewExec(workers)
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	opts := core.DefaultOptions()
	opts.Parallelism = workers
	opts.Exec = ex
	e := &env{ctx: ctx, ex: ex, workers: workers, opts: opts, seed: cfg.seed}
	// The first reference computation only warms it up.
	calibrate(workers)
	e.speed = newSpeedLog(workers)
	mach := machine(workers, cfg.seed)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", wl.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "machine: nproc=%d GOMAXPROCS=%d workers=%d go=%s commit=%s cpu=%q seed=%d\n",
		mach.NProc, mach.GOMAXPROCS, mach.Workers, mach.GoVersion, mach.Commit, mach.CPUModel, mach.Seed)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up, repeated; the ops of the last repetition are measured.
	var ops []op
	var setups [][]interval
	var setupSpans []span
	var setupSpent time.Duration
	for rep := 0; rep < maxSetupReps && (rep == 0 || setupSpent < setupBudget); rep++ {
		runtime.GC()
		first := 0
		if tr != nil {
			first = len(tr.spans)
		}
		root := tr.begin("setup", "")
		e.steps = []interval{{from: e.speed.now()}}
		ops, err = wl.setup(e, tr)
		e.lap()
		tr.end(root, err)
		if err != nil {
			return fmt.Errorf("set-up of %s: %w", wl.name, err)
		}
		steps := e.steps[:len(e.steps)-1]
		e.steps = nil
		for _, st := range steps {
			setupSpent += st.dur()
		}
		setups = append(setups, steps)
		if tr != nil {
			setupSpans = tr.spans[first:]
		}
	}

	// Oracle, outside the timed passes.
	orc := newOracle(core.Options{Equalization: true, Rasterization: true, PartialEnumeration: true, Parallelism: workers})
	expected := make([]answer, len(ops))
	oracleErr := make([]error, len(ops))
	method := make([]string, len(ops))
	checkedBy := map[string]int{}
	for i, o := range ops {
		expected[i], method[i], oracleErr[i] = o.expect(orc)
		if oracleErr[i] == nil {
			checkedBy[method[i]]++
		}
	}

	res := measure(cfg, e, tr, ops, expected, oracleErr)

	// Report.
	var raw, scaled opTotals
	for i, o := range ops {
		r, sc := raw.add(res.samples[i], nil), scaled.add(res.samples[i], e.speed)
		p := &res.prov[i]
		p.Op, p.Oracle, p.MedianSec, p.ScaledSec = o.id, method[i], r, sc
		if oracleErr[i] != nil {
			p.Oracle = "failed: " + firstLine(oracleErr[i].Error())
		}
		fmt.Fprintf(stdout, "op %-34s median %9.4fs scaled %9.4fs  tier=%-9s fallback=%-5v oracle=%s", o.id, r, sc, p.Tier, p.Fallback, p.Oracle)
		if p.Reason != "" {
			fmt.Fprintf(stdout, "  reason=%q", p.Reason)
		}
		fmt.Fprintln(stdout)
	}
	for _, f := range res.failures {
		fmt.Fprintln(stdout, "FAILED", f)
	}
	fmt.Fprintf(stdout, "passes: wall_s %s cpu_s %s traced wall_s %s\n", fmtList(res.passWall), fmtList(res.passCPU), fmtList(res.tracedWall))
	var setupTimes, setupScaled []float64
	for _, steps := range setups {
		var d time.Duration
		var sc float64
		for _, st := range steps {
			d += st.dur()
			sc += e.speed.scale(st.dur(), st)
		}
		setupTimes = append(setupTimes, d.Seconds())
		setupScaled = append(setupScaled, sc)
	}
	fmt.Fprintf(stdout, "reference computation: median %.4fs over %d timings (%.4fs at reference speed)\n", median(e.speed.timings()), len(e.speed.took), calNominal.Seconds())
	fmt.Fprintf(stdout, "raw: wall_s %.6f geomean_op_s %.6f cpu_s %.6f setup_s %.6f\n", raw.wall, geomean(raw.opWall), raw.cpu, median(setupTimes))
	fmt.Fprintf(stdout, "oracle: %d ops checked by simulation, %d by concrete analysis, %d unchecked; replay %.3fs for %d accesses, concrete %.3fs\n",
		checkedBy[bySimulation], checkedBy[byConcrete], len(ops)-checkedBy[bySimulation]-checkedBy[byConcrete],
		orc.simTime.Seconds(), orc.simAccesses, orc.concrete.Seconds())

	attempted := res.attempted
	failedFrac := ratio(float64(res.failed), float64(attempted))
	fallbackFrac := ratio(float64(res.fallbacks), float64(attempted))
	endToEnd := map[string]float64{
		"setup_s":      median(setupScaled),
		"wall_s":       scaled.wall,
		"geomean_op_s": geomean(scaled.opWall),
		"cpu_s":        scaled.cpu,
		"exact_frac":   ratio(float64(res.exact), float64(attempted)),
	}
	samples := map[string]int{
		"setup_s": len(setupTimes), "wall_s": len(res.passWall), "geomean_op_s": len(res.passWall),
		"cpu_s": len(res.passWall), "exact_frac": attempted,
	}
	for _, d := range endToEndDefs {
		fmt.Fprintf(stdout, "metric %-14s %14.6f %-5s (median of %d)\n", d.Name, endToEnd[d.Name], d.Unit, samples[d.Name])
	}
	fmt.Fprintf(stdout, "metric %-14s %14.6f %-5s (%d of %d ops)\n", "failed_frac", failedFrac, "ratio", res.failed, attempted)
	fmt.Fprintf(stdout, "metric %-14s %14.6f %-5s (%d of %d ops)\n", "fallback_frac", fallbackFrac, "ratio", res.fallbacks, attempted)
	fmt.Fprintf(stdout, "metric %-14s %14.6f %-5s (whole process)\n", "peak_rss_mb", peakRSSMB(), "MB")

	out := summary{Correct: res.failed == 0, Attempted: attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	var layers map[string]float64
	if cfg.trace {
		layers = res.layers
		for k, v := range setupLayerMetrics(setupSpans) {
			layers[k] = v
		}
		if layers["parwork.cpu_per_wall_distances"] == 0 {
			// The sweeps build their distance models in set-up only.
			t := totalsOf(setupSpans)
			layers["parwork.cpu_per_wall_distances"] = ratio(t.cpu("core.compute_distances"), t.wall("core.compute_distances"))
		}
		layers["cachesim.reference_s"] = orc.simTime.Seconds()
		layers["cachesim.accesses_per_s"] = ratio(float64(orc.simAccesses), orc.simTime.Seconds())
		layers["runtime.peak_rss_mb"] = peakRSSMB()
		untraced, traced := raw.wall, median(res.tracedWall)
		layers["bench.trace_overhead_frac"] = ratio(traced-untraced, untraced)
		fmt.Fprintf(stdout, "tracing overhead: traced pass %.3fs against untraced pass %.3fs: %+.3fs (%+.1f%%)\n",
			traced, untraced, traced-untraced, 100*layers["bench.trace_overhead_frac"])
		for _, d := range perLayerDefs {
			fmt.Fprintf(stdout, "layer %-34s %16.6f %s\n", d.Name, layers[d.Name], d.Unit)
			out.Metrics[d.Name] = metricValue{layers[d.Name], d.Unit}
		}
		computeSelf(tr.spans)
		split := stageSplit(tr.spans, "pass")
		printStageSplit(stdout, wl.name+" (traced passes)", split)
		printStageSplit(stdout, wl.name+" (set-ups)", stageSplit(tr.spans, "setup"))
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", wl.name, cfg.seed))
		doc := map[string]any{"workload": wl.name, "machine": mach, "stage_split": split, "spans": tr.spans}
		if err := writeJSON(path, doc); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
	} else {
		for _, d := range endToEndDefs {
			out.Metrics[d.Name] = metricValue{endToEnd[d.Name], d.Unit}
		}
	}

	resultPath := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", wl.name, cfg.seed, boolInt(cfg.trace)))
	doc := map[string]any{
		"workload": wl.name, "why": wl.why, "machine": mach, "seconds": cfg.seconds,
		"end_to_end": endToEnd, "samples": samples, "setup_raw_s": setupTimes,
		"raw":         map[string]float64{"wall_s": raw.wall, "geomean_op_s": geomean(raw.opWall), "cpu_s": raw.cpu, "setup_s": median(setupTimes)},
		"reference_s": e.speed.timings(), "reference_nominal_s": calNominal.Seconds(), "failed_frac": failedFrac, "fallback_frac": fallbackFrac,
		"peak_rss_mb": peakRSSMB(), "pass_wall_s": res.passWall, "pass_cpu_s": res.passCPU,
		"traced_pass_wall_s": res.tracedWall, "per_layer": layers, "ops": res.prov,
		"failures": res.failures, "checked_by": checkedBy,
	}
	if err := writeJSON(resultPath, doc); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// measurement is what the passes of a run measured.
type measurement struct {
	passWall, passCPU []float64    // untraced passes: sums over their ops
	tracedWall        []float64    // traced passes
	samples           [][]opSample // per op, untraced passes
	prov              []provenance
	attempted, failed int
	fallbacks, exact  int
	failures          []string
	layers            map[string]float64 // medians over the traced passes
}

// opSample is one untraced execution of an op: when it ran, which gives
// its wall time, and its process CPU time.
type opSample struct {
	interval
	cpu time.Duration
}

// opTotals sums per-op medians over the ops of a workload: the time of a
// pass made of each op's median execution.
type opTotals struct {
	wall, cpu float64
	opWall    []float64
}

// add adds the medians of one op's samples, scaled to the reference speed
// by speed or, with a nil speed, raw, and returns the op's median wall time.
func (t *opTotals) add(samples []opSample, speed *speedLog) float64 {
	var walls, cpus []float64
	for _, s := range samples {
		walls = append(walls, speed.scale(s.dur(), s.interval))
		cpus = append(cpus, speed.scale(s.cpu, s.interval))
	}
	w := median(walls)
	t.wall += w
	t.cpu += median(cpus)
	t.opWall = append(t.opWall, w)
	return w
}

// measure runs passes over the ops in seed-shuffled order until the run's
// seconds are spent: at least minPasses untraced passes, or in a traced run
// one untraced pass followed by at least one traced pass. Every answer is
// checked against the oracle and against the first pass's answer.
func measure(cfg config, e *env, tr *tracer, ops []op, expected []answer, oracleErr []error) measurement {
	m := measurement{samples: make([][]opSample, len(ops)), prov: make([]provenance, len(ops))}
	firstAnswer := make([]*answer, len(ops))
	layerSamples := map[string][]float64{}
	orderRng := orderSource(cfg.seed)
	budget := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	for p := 0; ; p++ {
		traced := cfg.trace && p > 0
		if cfg.trace && p >= 2 && time.Since(start) >= budget {
			break
		}
		if !cfg.trace && p >= minPasses && time.Since(start) >= budget {
			break
		}
		var t *tracer
		if traced {
			t = tr
		}
		order := orderRng.Perm(len(ops))
		acc := layerAcc{}
		runtime.GC()
		first := 0
		if t != nil {
			first = len(t.spans)
		}
		pool0 := e.ex.PoolStats()
		s0 := takeSample()
		if !traced {
			e.speed.calibrate()
		}
		var passWall, passCPU time.Duration
		root := t.begin("pass", "")
		for _, i := range order {
			o := ops[i]
			opSpan := t.begin("op", o.id)
			from, cpu0 := e.speed.now(), processCPU()
			res, err := runOp(o, t, acc)
			iv, cpu := interval{from, e.speed.now()}, processCPU()-cpu0
			t.end(opSpan, err)
			passWall += iv.dur()
			passCPU += cpu
			if !traced {
				e.speed.calibrate()
				m.samples[i] = append(m.samples[i], opSample{iv, cpu})
			}
			m.attempted++
			if err == nil && t != nil {
				acc.addResult(res)
			}
			if err == nil && p == 0 {
				m.prov[i] = provenance{Tier: res.Tier.String(), Fallback: res.UsedTraceFallback, Reason: firstLine(res.FallbackReason)}
			}
			degraded := err == nil && (res.UsedTraceFallback || res.Tier != core.TierExact)
			if degraded {
				m.fallbacks++
			}
			if err = verify(res, err, expected[i], oracleErr[i], &firstAnswer[i]); err != nil {
				m.failed++
				m.failures = append(m.failures, fmt.Sprintf("pass %d op %s: %s", p, o.id, firstLine(err.Error())))
			} else if !degraded {
				m.exact++
			}
		}
		t.end(root, nil)
		pass := takeSample().since(s0)
		pool := e.ex.PoolStats()
		if !traced {
			m.passWall = append(m.passWall, passWall.Seconds())
			m.passCPU = append(m.passCPU, passCPU.Seconds())
			continue
		}
		m.tracedWall = append(m.tracedWall, passWall.Seconds())
		poolDelta := parwork.PoolStats{Steals: pool.Steals - pool0.Steals, Splits: pool.Splits - pool0.Splits}
		for k, v := range passLayerMetrics(t.spans[first:], acc, pass, poolDelta) {
			layerSamples[k] = append(layerSamples[k], v)
		}
	}
	m.layers = map[string]float64{}
	for k, vs := range layerSamples {
		m.layers[k] = median(vs)
	}
	return m
}

// runOp runs one op, turning a panic into an error.
func runOp(o op, t *tracer, acc layerAcc) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	res, err = o.run(t, acc)
	if err == nil && res == nil {
		err = fmt.Errorf("no result")
	}
	return res, err
}

// verify checks one answer: the op must have succeeded, the oracle must have
// an answer, the answer must equal it and equal the op's first answer.
func verify(res *core.Result, err error, want answer, oracleErr error, first **answer) error {
	if err != nil {
		return err
	}
	if oracleErr != nil {
		return fmt.Errorf("no oracle answer: %w", oracleErr)
	}
	got := answerOf(res)
	if err := check(got, want); err != nil {
		return fmt.Errorf("disagrees with the oracle: %w", err)
	}
	if *first == nil {
		*first = &got
	} else if err := check(got, **first); err != nil {
		return fmt.Errorf("differs from the first pass: %w", err)
	}
	return nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
