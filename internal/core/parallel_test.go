package core

import (
	"reflect"
	"testing"

	"haystack/internal/scop"
)

// counterStats strips the timing and worker-pool bookkeeping from the stats,
// leaving only the deterministic counters. Steal/split counts depend on
// scheduling and the arena counters on free-list state, so they are
// observability, not part of the bit-identity contract.
func counterStats(s Stats) Stats {
	s.StackDistanceTime = 0
	s.CapacityTime = 0
	s.CompulsoryTime = 0
	s.TotalTime = 0
	s.CapacityWorkers = 0
	s.CapacityWorkerTime = nil
	s.Steals = 0
	s.Splits = 0
	s.ArenaHits = 0
	s.ArenaMisses = 0
	return s
}

// TestParallelCountsMatchSequential asserts that the parallel counting
// engine is bit-identical to the sequential path: capacity and compulsory
// miss counts, the per-statement breakdowns, and every merged Stats counter
// must not depend on the parallelism level.
func TestParallelCountsMatchSequential(t *testing.T) {
	progs := []*scop.Program{gemm(8), trisolvLike(10), jacobi1d(20, 2)}
	pars := []int{4}
	if testing.Short() {
		progs = []*scop.Program{gemm(6), trisolvLike(8)}
	}
	cfg := Config{LineSize: 64, CacheSizes: []int64{512, 2048, 16 * 1024}}
	for _, prog := range progs {
		opts := DefaultOptions()
		opts.Mode = ModeExact
		opts.Parallelism = 1
		seq, err := Analyze(prog, cfg, opts)
		if err != nil {
			t.Fatalf("%s: sequential analyze: %v", prog.Name, err)
		}
		for _, par := range pars {
			opts.Parallelism = par
			got, err := Analyze(prog, cfg, opts)
			if err != nil {
				t.Fatalf("%s: parallel analyze (%d workers): %v", prog.Name, par, err)
			}
			if got.CompulsoryMisses != seq.CompulsoryMisses {
				t.Errorf("%s: compulsory misses differ: %d parallel vs %d sequential",
					prog.Name, got.CompulsoryMisses, seq.CompulsoryMisses)
			}
			if len(got.Levels) != len(seq.Levels) {
				t.Fatalf("%s: level count differs", prog.Name)
			}
			for i := range got.Levels {
				if got.Levels[i].CapacityMisses != seq.Levels[i].CapacityMisses {
					t.Errorf("%s: level %d capacity misses differ: %d parallel vs %d sequential",
						prog.Name, i, got.Levels[i].CapacityMisses, seq.Levels[i].CapacityMisses)
				}
				if !reflect.DeepEqual(got.Levels[i].PerStatementCapacity, seq.Levels[i].PerStatementCapacity) {
					t.Errorf("%s: level %d per-statement capacity differs: %v parallel vs %v sequential",
						prog.Name, i, got.Levels[i].PerStatementCapacity, seq.Levels[i].PerStatementCapacity)
				}
			}
			if !reflect.DeepEqual(got.PerStatementCompulsory, seq.PerStatementCompulsory) {
				t.Errorf("%s: per-statement compulsory differs", prog.Name)
			}
			if !reflect.DeepEqual(counterStats(got.Stats), counterStats(seq.Stats)) {
				t.Errorf("%s: merged stats counters differ:\nparallel (%d workers): %+v\nsequential: %+v",
					prog.Name, par, counterStats(got.Stats), counterStats(seq.Stats))
			}
		}
	}
}

// TestParallelismKnobRecordedInStats asserts that the requested worker count
// is surfaced in the stats together with one busy-time entry per worker.
func TestParallelismKnobRecordedInStats(t *testing.T) {
	opts := DefaultOptions()
	opts.Mode = ModeExact
	opts.Parallelism = 2
	res, err := Analyze(gemm(6), Config{LineSize: 64, CacheSizes: []int64{1024}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CapacityWorkers < 1 || res.Stats.CapacityWorkers > 2 {
		t.Fatalf("CapacityWorkers = %d, want 1..2", res.Stats.CapacityWorkers)
	}
	if len(res.Stats.CapacityWorkerTime) != res.Stats.CapacityWorkers {
		t.Fatalf("CapacityWorkerTime has %d entries, want %d",
			len(res.Stats.CapacityWorkerTime), res.Stats.CapacityWorkers)
	}
	// Busy time is per-item now, so a worker that never claims an item
	// legitimately reports zero; at least one worker must have been busy.
	var busy int
	for i, d := range res.Stats.CapacityWorkerTime {
		if d < 0 {
			t.Fatalf("worker %d busy time negative: %v", i, d)
		}
		if d > 0 {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("no worker recorded any busy time")
	}
}

// TestLevelsShareOneCountingPass asserts the multi-level work sharing: the
// number of counted pieces must not grow with the number of cache levels,
// because every piece is split once and classified against all capacities.
func TestLevelsShareOneCountingPass(t *testing.T) {
	opts := DefaultOptions()
	opts.Mode = ModeExact
	one, err := Analyze(gemm(6), Config{LineSize: 64, CacheSizes: []int64{1024}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	three, err := Analyze(gemm(6), Config{LineSize: 64, CacheSizes: []int64{1024, 4096, 16384}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if one.Stats.CountedPieces != three.Stats.CountedPieces {
		t.Errorf("counted pieces grew with cache levels: %d for one level, %d for three",
			one.Stats.CountedPieces, three.Stats.CountedPieces)
	}
	if one.Levels[0].TotalMisses != three.Levels[0].TotalMisses {
		t.Errorf("first level misses differ between configs: %d vs %d",
			one.Levels[0].TotalMisses, three.Levels[0].TotalMisses)
	}
}
