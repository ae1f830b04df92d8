// Package core implements the HayStack cache model: a fast analytical model
// of fully associative LRU caches for static control programs (Gysi et al.,
// PLDI 2019).
//
// The model computes, for every memory access of the program, the backward
// stack distance as a piecewise quasi-polynomial (section 3.1 of the paper),
// counts the accesses whose distance exceeds the cache capacity to obtain
// the capacity misses (section 3.2, Algorithm 1), eliminates non-affine
// floor terms by equalization and rasterization (section 3.3), and counts
// the first accesses of every cache line as compulsory misses (section 3.4).
// All counting is symbolic; non-affine pieces fall back to partial or full
// enumeration exactly as the paper describes.
package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"haystack/internal/cachesim"
	"haystack/internal/counting"
	"haystack/internal/parwork"
	"haystack/internal/qpoly"
	"haystack/internal/reusedist"
	"haystack/internal/scop"
)

// Config describes the modeled cache hierarchy: LRU caches with the given
// capacities sharing one line size. Levels are fully associative by default;
// a per-level associativity in Ways selects set-associative modeling.
type Config struct {
	// LineSize is the cache line size in bytes.
	LineSize int64
	// CacheSizes holds the capacity in bytes of every modeled cache level,
	// ordered from the innermost level (L1) outwards.
	CacheSizes []int64
	// Ways holds the associativity of every level, parallel to CacheSizes:
	// entry i is the number of ways of level i, with 0 selecting full
	// associativity (the paper's model). A nil or short slice leaves the
	// remaining levels fully associative, so existing Config literals keep
	// their exact meaning. A set-associative level is modeled as numSets
	// independent fully associative LRU caches of Ways lines each, with
	// set(line) = line mod numSets over the padded layout — the identical
	// geometry derivation the simulator uses (cachesim.Geometry), so the
	// two engines can be compared bit for bit.
	Ways []int
}

// WaysOf returns the configured associativity of level i; zero means fully
// associative (levels beyond the Ways slice default to it).
func (cfg Config) WaysOf(i int) int {
	if i < len(cfg.Ways) {
		return cfg.Ways[i]
	}
	return 0
}

// LevelGeometry returns the set/way geometry of level i, derived by the
// exact rule the simulator applies (cachesim.Geometry): oversized or zero
// ways clamp to full associativity, and numSets is the integer quotient of
// the line count by the effective ways.
func (cfg Config) LevelGeometry(i int) (numSets, ways int64, err error) {
	return cachesim.Geometry(cfg.CacheSizes[i], cfg.LineSize, cfg.WaysOf(i))
}

// HasSetAssoc reports whether any level of the hierarchy is genuinely set
// associative (partitions into more than one set).
func (cfg Config) HasSetAssoc() bool {
	for i := range cfg.CacheSizes {
		if numSets, _, err := cfg.LevelGeometry(i); err == nil && numSets > 1 {
			return true
		}
	}
	return false
}

// Validate checks the hierarchy description: a positive line size, at least
// one cache level, a Ways slice no longer than the level list, and a
// derivable set/way geometry for every level.
func (cfg Config) Validate() error {
	if cfg.LineSize <= 0 {
		return fmt.Errorf("core: line size must be positive")
	}
	if len(cfg.CacheSizes) == 0 {
		return fmt.Errorf("core: at least one cache size is required")
	}
	if len(cfg.Ways) > len(cfg.CacheSizes) {
		return fmt.Errorf("core: %d ways entries for %d cache levels", len(cfg.Ways), len(cfg.CacheSizes))
	}
	for i := range cfg.CacheSizes {
		if _, _, err := cfg.LevelGeometry(i); err != nil {
			return fmt.Errorf("core: level %d: %w", i+1, err)
		}
	}
	return nil
}

// DefaultConfig returns the cache configuration of the paper's test system:
// 64-byte lines, a 32 KiB L1 and a 1 MiB L2.
func DefaultConfig() Config {
	return Config{LineSize: 64, CacheSizes: []int64{32 * 1024, 1024 * 1024}}
}

// Mode selects the rung of the degradation ladder the analysis runs on.
type Mode int

const (
	// ModeExact (the zero value) demands exact symbolic answers: a stage
	// that exceeds the budget or leaves the supported fragment fails the
	// analysis.
	ModeExact Mode = iota
	// ModeBounded degrades failing operations to certified interval bounds
	// (Lo <= exact <= Hi) instead of failing: the analysis always answers,
	// and exact sub-results keep width 0.
	ModeBounded
	// ModeSim skips the symbolic pipeline entirely and answers from an
	// exact trace profile (runtime proportional to the trace length).
	ModeSim
	// ModeAuto runs the exact symbolic pipeline and, where it fails, answers
	// from the exact trace profile instead (TierSimulated): results stay
	// exact, and only the runtime of the fallen-back programs becomes
	// proportional to the trace length. DefaultOptions selects it.
	ModeAuto
)

func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeBounded:
		return "bounded"
	case ModeSim:
		return "sim"
	case ModeAuto:
		return "auto"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses the -mode CLI flag values.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "exact", "":
		return ModeExact, nil
	case "auto":
		return ModeAuto, nil
	case "bounded":
		return ModeBounded, nil
	case "sim":
		return ModeSim, nil
	}
	return ModeExact, fmt.Errorf("core: unknown mode %q (want exact, auto, bounded, or sim)", s)
}

// Tier reports which rung of the degradation ladder produced a Result.
type Tier int

const (
	// TierExact: every count of the result is exact (all bound widths 0).
	TierExact Tier = iota
	// TierBounded: at least one count degraded to a certified interval;
	// the point values report the conservative upper bound of the
	// interval and the bounds fields carry the certified ranges.
	TierBounded
	// TierSimulated: the result was obtained by exact trace profiling
	// (the ModeAuto fallback, or ModeSim).
	TierSimulated
)

func (t Tier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierBounded:
		return "bounded"
	case TierSimulated:
		return "simulated"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// Options toggles the optimizations of the miss counting stage; all of them
// are enabled by default. Disabling them reproduces the ablation study of
// the evaluation (Figure 14).
type Options struct {
	// Equalization replaces pairs of floor expressions that differ by a
	// constant offset with per-region constants (section 3.3).
	Equalization bool
	// Rasterization specializes floor expressions per cache line offset
	// (section 3.3).
	Rasterization bool
	// PartialEnumeration enumerates only the non-affine dimensions of a
	// piece and counts the affine dimensions symbolically (section 3.2);
	// when disabled, non-affine pieces are enumerated point by point.
	PartialEnumeration bool
	// Parallelism is the number of worker goroutines of the analysis: the
	// capacity miss counting engine fans the distance pieces out over the
	// pool, and the stack distance computation uses it for the per-basic-map
	// lexicographic maxima and the touched-line counting. Zero or negative
	// selects runtime.NumCPU(). Results are bit-identical for every
	// parallelism level.
	Parallelism int
	// Mode selects the degradation ladder rung (exact, auto, bounded, sim);
	// see the Mode constants. The zero value is ModeExact, which fails
	// loudly; DefaultOptions selects ModeAuto.
	Mode Mode
	// Budget caps the cost units every counting operation of the analysis
	// may spend (Fourier-Motzkin system fan-out and enumerated points both
	// charge one unit). Zero means unlimited. The cap is enforced per
	// operation — not against a shared pool — so which operation degrades
	// is deterministic and independent of the worker count. In ModeExact
	// an exceeded budget fails the operation, in ModeAuto it triggers the
	// trace fallback, and in ModeBounded it degrades the operation to
	// certified interval bounds.
	Budget int64
	// Exec, when non-nil, supplies the work-stealing executor the analysis
	// schedules its chamber-level units on, overriding Parallelism. Callers
	// running several analyses concurrently (design-space sweeps) pass a
	// shared pool — or the *parwork.Worker executing the enclosing item —
	// so one long-pole analysis fans out across whatever workers the
	// others have freed. The executor is used only for the duration of the
	// call and never retained. Results remain bit-identical for every
	// executor shape.
	Exec parwork.Exec
}

// effectiveParallelism resolves the Parallelism knob: values below one
// select the number of CPUs.
func effectiveParallelism(p int) int {
	if p <= 0 {
		return runtime.NumCPU()
	}
	return p
}

// executor resolves the executor of one analysis call: the caller-supplied
// Exec when set (release is then a no-op — the caller owns it), otherwise a
// transient executor sized by the Parallelism knob that release tears down.
func (o Options) executor() (ex parwork.Exec, release func()) {
	if o.Exec != nil {
		return o.Exec, func() {}
	}
	return parwork.NewExec(effectiveParallelism(o.Parallelism))
}

// DefaultOptions enables every optimization and selects ModeAuto.
func DefaultOptions() Options {
	return Options{Equalization: true, Rasterization: true, PartialEnumeration: true, Mode: ModeAuto}
}

// LevelResult holds the modeled miss counts of one cache level.
type LevelResult struct {
	CacheBytes     int64
	CapacityMisses int64
	// TotalMisses is the sum of compulsory and capacity misses.
	TotalMisses int64
	// PerStatementCapacity attributes the capacity misses to statements.
	PerStatementCapacity map[string]int64
	// CapacityMissBounds and TotalMissBounds are the certified intervals
	// around the corresponding counts. Exact results carry width-0
	// intervals; bounded-tier results report the interval, with the point
	// fields above pinned to the conservative upper bound.
	CapacityMissBounds counting.Interval
	TotalMissBounds    counting.Interval
}

// Stats records where the model spent its time and how many pieces it
// counted, mirroring the quantities reported in the evaluation section.
type Stats struct {
	StackDistanceTime time.Duration
	CapacityTime      time.Duration
	CompulsoryTime    time.Duration
	TotalTime         time.Duration

	// DistancePieces is the number of pieces of the stack distance
	// quasi-polynomials across all statements.
	DistancePieces int
	// CountedPieces is the number of pieces counted separately while
	// computing capacity misses (after equalization, rasterization, and
	// partial enumeration splits). Every piece is split once and classified
	// against all cache levels in a single pass, so the count is independent
	// of the number of modeled levels.
	CountedPieces int
	// AffinePieces and NonAffinePieces classify the distance pieces.
	AffinePieces    int
	NonAffinePieces int
	// NonAffineByAffineDims histograms the non-affine pieces by the number
	// of dimensions that could still be counted symbolically (Table 1).
	NonAffineByAffineDims map[int]int
	// EqualizationSplits and RasterizationSplits count applications of the
	// floor elimination techniques.
	EqualizationSplits  int
	RasterizationSplits int
	// PartialEnumerationPoints is the number of enumerated points of
	// non-affine dimensions; FullEnumerationPoints counts points that had to
	// be enumerated exhaustively.
	PartialEnumerationPoints int64
	FullEnumerationPoints    int64

	// CapacityWorkers is the number of worker goroutines the capacity miss
	// counting engine ran with; CapacityWorkerTime holds the busy time of
	// every worker (indexed by worker id): the accumulated wall-clock time
	// of the work items it executed, so an idle worker reports zero. All
	// other counters of Stats are merged deterministically from the
	// per-worker accumulators and do not depend on the parallelism level.
	CapacityWorkers    int
	CapacityWorkerTime []time.Duration

	// Scheduler and arena observability. Steals counts work items claimed
	// from another worker's deque and Splits counts work items that fanned
	// out into nested sub-groups during this call; ArenaHits/ArenaMisses
	// are the coefficient-scratch free-list counters of the presburger
	// layer over the call. All four are scheduling- or cache-state-
	// dependent (and, under a shared pool, attributed best-effort like the
	// Coalesce* counters): they never affect results and are excluded from
	// the bit-identity guarantees.
	Steals      int64
	Splits      int64
	ArenaHits   int64
	ArenaMisses int64

	// Coalescing observability (distance phase). PeakBasicMaps is the
	// largest basic-map count entering any simplification frontier of the
	// stack-distance pipeline; BasicMapsBeforeCoalesce and
	// BasicMapsAfterCoalesce accumulate the counts entering and leaving
	// those frontiers, so their ratio is the average shrink factor. The
	// Coalesce* counters are the rule hit counts of the presburger layer
	// (including the coalescing that runs inside Subtract/Intersect/
	// ApplyRange and in lexmin and counting) over the whole distance phase.
	PeakBasicMaps           int
	BasicMapsBeforeCoalesce int64
	BasicMapsAfterCoalesce  int64
	CoalesceDedup           int64
	CoalesceSubsumed        int64
	CoalesceAdjacent        int64
	CoalesceRedundantCons   int64

	// SetAssoc records, for every genuinely set-associative level of the
	// query (more than one set), how the distance pieces partitioned among
	// the cache sets. The counts are scheduling independent and part of the
	// bit-identity contract; the slice is empty for fully associative
	// hierarchies.
	SetAssoc []SetAssocLevelStats

	// BoundWidth holds, per cache level, the width of the certified total
	// miss interval (TotalMissBounds.Width()). Exact results report zeros,
	// so any nonzero entry is a visible tightness regression.
	BoundWidth []int64
	// BudgetUsed is the monotonic total of cost units charged by all
	// counting operations of the call (observability only; limits are
	// enforced per operation).
	BudgetUsed int64
}

// SetAssocLevelStats describes the per-set partition of one set-associative
// cache level of a CountMisses query.
type SetAssocLevelStats struct {
	// Level indexes the cache level in Config.CacheSizes.
	Level int
	// Sets and Ways are the derived geometry (cachesim.Geometry).
	Sets int64
	Ways int64
	// SetPieces[s] is the number of cardinality summand pieces of set s,
	// after restricting the touched-line maps to the set's lines. The
	// summands stay unmerged (their pointwise sum is the within-set
	// distance; see counting.MapCardSummands), so this counts the lazy
	// bag, not a merged piecewise normal form. The counts do not depend
	// on the worker count.
	SetPieces []int
}

// merge adds the additive counters of o into s. Timing fields and the
// worker-pool bookkeeping are not merged: they are owned by the coordinating
// goroutine.
func (s *Stats) merge(o *Stats) {
	s.CountedPieces += o.CountedPieces
	s.AffinePieces += o.AffinePieces
	s.NonAffinePieces += o.NonAffinePieces
	for k, v := range o.NonAffineByAffineDims {
		s.NonAffineByAffineDims[k] += v
	}
	s.EqualizationSplits += o.EqualizationSplits
	s.RasterizationSplits += o.RasterizationSplits
	s.PartialEnumerationPoints += o.PartialEnumerationPoints
	s.FullEnumerationPoints += o.FullEnumerationPoints
}

// Result is the outcome of analyzing one program.
type Result struct {
	Kernel           string
	TotalAccesses    int64
	CompulsoryMisses int64
	Levels           []LevelResult
	// PerStatementCompulsory attributes compulsory misses to the statement
	// performing the first access of each line (empty if attribution was
	// skipped).
	PerStatementCompulsory map[string]int64
	Stats                  Stats
	// UsedTraceFallback reports that the result was obtained by exact trace
	// profiling: the symbolic pipeline failed under ModeAuto, or ModeSim
	// skipped it.
	UsedTraceFallback bool
	// FallbackReason carries the provenance of any degradation: the error
	// that triggered the trace fallback, or the reason the bounded tier
	// degraded an operation.
	FallbackReason string
	// Tier reports the degradation ladder rung that produced the result.
	Tier Tier
	// CompulsoryBounds is the certified interval around CompulsoryMisses
	// (width 0 when the compulsory count is exact).
	CompulsoryBounds counting.Interval
}

// setLevels is the one place a Result's levels are assembled. From the
// certified capacity miss interval of every level (width 0 when exact) and
// the per-statement capacity counts (nil when not attributed), it fills
// res.Levels, derives each total miss interval from res.CompulsoryBounds,
// and records Stats.BoundWidth. Degradation reasons, or an inexact
// compulsory count, mark the result TierBounded with their summary as
// provenance. res.TotalAccesses and res.CompulsoryBounds must be set.
func (res *Result) setLevels(sizes []int64, capBounds []counting.Interval, perStmt []map[string]int64, reasons []string) {
	res.Levels = make([]LevelResult, len(sizes))
	res.Stats.BoundWidth = make([]int64, len(sizes))
	for i, size := range sizes {
		capacity := capBounds[i]
		if !capacity.IsExact() {
			// Certified cap: capacity misses are repeat accesses, so they
			// cannot exceed the non-compulsory access count. Exact counts are
			// left untouched.
			capacity = capacity.ClampHi(res.TotalAccesses - res.CompulsoryBounds.Lo)
		}
		total := capacity.Add(res.CompulsoryBounds).ClampHi(res.TotalAccesses)
		res.Levels[i] = LevelResult{
			CacheBytes:         size,
			CapacityMisses:     capacity.Hi,
			TotalMisses:        total.Hi,
			CapacityMissBounds: capacity,
			TotalMissBounds:    total,
		}
		if perStmt != nil {
			res.Levels[i].PerStatementCapacity = perStmt[i]
		}
		res.Stats.BoundWidth[i] = total.Width()
	}
	if len(reasons) > 0 || !res.CompulsoryBounds.IsExact() {
		res.Tier = TierBounded
		res.FallbackReason = degradationSummary(reasons, res.CompulsoryBounds)
	}
}

// Analyze runs the cache model on a program. It is the single-shot
// composition of the two analysis phases: ComputeDistances derives the
// cache-independent stack distance model and CountMisses classifies it
// against the hierarchy. Callers evaluating one program against several
// hierarchies (design-space exploration) should call the phases directly and
// reuse the DistanceModel, which amortizes the expensive distance phase.
func Analyze(prog *scop.Program, cfg Config, opts Options) (*Result, error) {
	return AnalyzeContext(context.Background(), prog, cfg, opts)
}

// AnalyzeContext is Analyze observing ctx: the analysis stops claiming work
// promptly after cancellation and returns the context error. A deadline is a
// context.WithTimeout around the call.
func AnalyzeContext(ctx context.Context, prog *scop.Program, cfg Config, opts Options) (*Result, error) {
	start := time.Now()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dm, err := ComputeDistancesContext(ctx, prog, cfg.LineSize, opts)
	if err != nil {
		return nil, err
	}
	res, err := dm.CountMissesExec(ctx, cfg, opts.Exec)
	if err != nil {
		return nil, err
	}
	res.Stats.TotalTime = time.Since(start)
	return res, nil
}

// totalAccesses counts the dynamic memory accesses of the program (the
// length of its trace) symbolically, together with the per-statement
// instance counts (the bounded tier caps a degraded statement's capacity
// misses by its instance count). The counts are deliberately unbudgeted:
// iteration domains are the cheap denominators of the analysis, and every
// certified bound of the bounded tier is anchored on them.
func totalAccesses(info *scop.PolyInfo) (int64, map[string]int64, error) {
	var total int64
	perStmt := make(map[string]int64, len(info.Statements))
	for _, ps := range info.Statements {
		n, err := counting.CountSet(ps.Domain, nil)
		if err != nil {
			return 0, nil, err
		}
		perStmt[ps.Space.Name] += n
		total += n
	}
	return total, perStmt, nil
}

// StatementDistance pairs a statement with the piecewise quasi-polynomial
// giving the backward stack distance of each of its accesses.
type StatementDistance struct {
	Statement string
	// Distance maps every point of the statement instance space (loop
	// variables plus the access dimension) that has a previous access to the
	// same cache line to its stack distance; instances without previous
	// access (compulsory misses) are outside all pieces.
	Distance qpoly.PwQPoly
}

// Reference holds the exact miss counts obtained by replaying the trace,
// with the same semantics the model uses: every level is a fully associative
// LRU cache observing the full access stream.
type Reference struct {
	TotalAccesses    int64
	CompulsoryMisses int64
	// TotalMisses[i] is the number of misses of a fully associative LRU
	// cache with capacity cfg.CacheSizes[i].
	TotalMisses []int64
}

// SimulateReference computes the exact reference counts for the model: the
// trace is replayed with the padded array layout the model assumes and the
// stack distance profile yields the misses of every configured cache size.
// It is the ground truth the model is validated against in the tests.
func SimulateReference(prog *scop.Program, cfg Config) (Reference, error) {
	layout := scop.NewLayout(prog, scop.LayoutPadded, cfg.LineSize)
	cp, err := scop.Compile(prog, layout)
	if err != nil {
		return Reference{}, err
	}
	profile := reusedist.ProfileProgram(cp, cfg.LineSize)
	ref := Reference{TotalAccesses: profile.Accesses, CompulsoryMisses: profile.Compulsory}
	for _, size := range cfg.CacheSizes {
		ref.TotalMisses = append(ref.TotalMisses, profile.MissesForCapacity(size/cfg.LineSize))
	}
	return ref, nil
}

// DetailedSimulation runs the trace-driven simulator (Dinero stand-in) on
// the natural (unpadded) array layout with the given hierarchy; it is used
// by the experiment harness for the set-associative and "measured"
// configurations.
func DetailedSimulation(prog *scop.Program, simCfg cachesim.Config) (cachesim.Result, error) {
	layout := scop.NewLayout(prog, scop.LayoutNatural, simCfg.LineSize)
	cp, err := scop.Compile(prog, layout)
	if err != nil {
		return cachesim.Result{}, err
	}
	return cachesim.Simulate(cp, simCfg)
}
