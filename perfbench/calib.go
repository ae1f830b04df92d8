package main

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Every time the benchmark reports end to end is scaled to a reference
// speed of the machine. The machine is shared: its speed drifts by 20% and
// more within minutes as other tenants' load comes and goes, and CPU time
// drifts with wall time, so run to run that drift, not the program, set the
// spread of raw times. After every timed op and every step of a set-up, the
// benchmark times a fixed reference computation of its own, and scales each
// time it measured by calNominal over the median of the reference timings
// taken within calWindow of it: one timing is short and jittery, while the
// drift is slow. The reference computation shares no code with the program
// under test, so a change to the program moves the scaled times as much as
// the raw ones; the raw times are printed and recorded beside them.
const (
	// calReps repetitions of calibrationWork make one timing of the
	// reference computation, on every worker at once.
	calReps = 25
	// calNominal is the time of one timing at the reference speed: a
	// reported 1 s is 1 s on a machine that times the reference
	// computation at calNominal.
	calNominal = 50 * time.Millisecond
	// calWindow is how far before and after a measured interval the
	// reference timings that scale it may lie.
	calWindow = 5 * time.Second
)

// calibrationWork is the reference computation. It resembles the program's
// own work in character — small integer rows combined pairwise with gcd
// normalization, sorted and deduplicated through a map, allocating about
// 1.2 MB as it goes, so that the collector works as it does for the
// program — and takes about 2 ms on a 2-core Xeon. Its collection work
// follows its own allocation, not the heap the program keeps live: with
// GOGC=100 each cycle marks the live heap but comes once per live heap
// allocated. It returns a checksum so that the work cannot be optimized
// away.
func calibrationWork() int64 {
	rng := rand.New(rand.NewPCG(12345, 678))
	const width = 8
	rows := make([][]int64, 0, 64)
	for i := 0; i < 64; i++ {
		row := make([]int64, width)
		for j := range row {
			row[j] = rng.Int64N(19) - 9
		}
		rows = append(rows, row)
	}
	var sum int64
	for round := 0; round < 3; round++ {
		seen := map[[width]int64]bool{}
		var next [][]int64
		for a := 0; a < len(rows); a++ {
			for b := a + 1; b < len(rows); b++ {
				ra, rb := rows[a], rows[b]
				c := (a + b + round) % width
				if ra[c]*rb[c] >= 0 {
					continue
				}
				fa, fb := abs64(rb[c]), abs64(ra[c])
				row := make([]int64, width)
				var g int64
				for j := range row {
					row[j] = fa*ra[j] + fb*rb[j]
					g = gcd64(g, abs64(row[j]))
				}
				if g > 1 {
					for j := range row {
						row[j] /= g
					}
				}
				key := [width]int64(row)
				if seen[key] {
					continue
				}
				seen[key] = true
				next = append(next, row)
			}
		}
		slices.SortFunc(next, slices.Compare[[]int64])
		if len(next) > 96 {
			next = next[:96]
		}
		for _, row := range next {
			sum += row[0]
		}
		rows = next
	}
	return sum
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// calibrate makes one timing of the reference computation: calReps
// repetitions on each of workers goroutines at once, as the ops use every
// worker. It collects garbage first, outside the timing, so that every
// timing starts from the live heap alone, whatever the op before it left.
func calibrate(workers int) time.Duration {
	sums := make([]int64, max(workers, 1))
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for w := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calReps; i++ {
				sums[w] += calibrationWork()
			}
		}()
	}
	wg.Wait()
	d := time.Since(start)
	for _, s := range sums[1:] {
		if s != sums[0] {
			panic("reference computation is not deterministic")
		}
	}
	return d
}

// speedLog keeps every timing of the reference computation in a run, with
// when it ended.
type speedLog struct {
	workers int
	t0      time.Time
	at      []time.Duration // end of each timing, since t0
	took    []time.Duration
}

func newSpeedLog(workers int) *speedLog {
	return &speedLog{workers: workers, t0: time.Now()}
}

// now returns the time since the log started.
func (l *speedLog) now() time.Duration { return time.Since(l.t0) }

// calibrate makes and records one timing of the reference computation.
func (l *speedLog) calibrate() {
	d := calibrate(l.workers)
	l.at = append(l.at, l.now())
	l.took = append(l.took, d)
}

// interval is a stretch of a run, as offsets from the start of its speed
// log.
type interval struct{ from, to time.Duration }

func (iv interval) dur() time.Duration { return iv.to - iv.from }

// scale returns d, measured over iv, in seconds at the reference speed: d
// times calNominal over the median of the timings that ended within
// calWindow of iv. A nil log returns d in seconds.
func (l *speedLog) scale(d time.Duration, iv interval) float64 {
	if l == nil {
		return d.Seconds()
	}
	var near []float64
	for i, at := range l.at {
		if at >= iv.from-calWindow && at <= iv.to+calWindow {
			near = append(near, l.took[i].Seconds())
		}
	}
	if len(near) == 0 {
		panic("no reference timing near a measured interval")
	}
	return d.Seconds() * calNominal.Seconds() / median(near)
}

// timings returns every timing in seconds.
func (l *speedLog) timings() []float64 {
	out := make([]float64, len(l.took))
	for i, d := range l.took {
		out[i] = d.Seconds()
	}
	return out
}
