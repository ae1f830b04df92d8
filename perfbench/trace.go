package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// sample is a snapshot of the process counters a span or a pass is measured
// with: wall clock, process CPU time (user+sys, all threads) and the
// runtime/metrics allocation and GC counters.
type sample struct {
	wall     time.Time
	cpu      time.Duration
	allocs   uint64
	bytes    uint64
	gcCycles uint64
	gcCPU    float64
}

// usage is the difference of two samples.
type usage struct {
	Wall     time.Duration
	CPU      time.Duration
	Allocs   uint64
	Bytes    uint64
	GCCycles uint64
	GCCPU    float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func takeSample() sample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s := sample{wall: time.Now(), cpu: processCPU()}
	s.allocs = ms[0].Value.Uint64()
	s.bytes = ms[1].Value.Uint64()
	s.gcCycles = ms[2].Value.Uint64()
	s.gcCPU = ms[3].Value.Float64()
	return s
}

func (s sample) since(b sample) usage {
	return usage{
		Wall:     s.wall.Sub(b.wall),
		CPU:      s.cpu - b.cpu,
		Allocs:   s.allocs - b.allocs,
		Bytes:    s.bytes - b.bytes,
		GCCycles: s.gcCycles - b.gcCycles,
		GCCPU:    s.gcCPU - b.gcCPU,
	}
}

// processCPU returns the user+sys CPU time the process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the peak resident set size of the process in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// span is one call recorded by a traced run. Roots are a set-up or a pass,
// their children are ops, and the op's children are the calls into the
// layers. Times are offsets from the start of the run.
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"` // 0 for a root
	Name     string        `json:"name"`
	Op       string        `json:"op,omitempty"` // shared by every span of one op
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Self     time.Duration `json:"self_ns"`
	CPU      time.Duration `json:"cpu_ns"`
	Allocs   uint64        `json:"allocs"`
	Bytes    uint64        `json:"alloc_bytes"`
	GCCycles uint64        `json:"gc_cycles"`
	GCCPU    float64       `json:"gc_cpu_s"`
	Err      string        `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps the spans of one run in memory. Calls are made from one
// goroutine, so the open spans form a stack. A nil tracer records nothing,
// which is how the untraced run measures without tracing cost.
type tracer struct {
	t0    time.Time
	spans []span
	open  []openSpan
}

type openSpan struct {
	idx   int
	start sample
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named name under the innermost open span. An empty op
// inherits the parent's op id.
func (t *tracer) begin(name, op string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		p := t.spans[t.open[n-1].idx]
		parent = p.ID
		if op == "" {
			op = p.Op
		}
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{ID: idx + 1, Parent: parent, Name: name, Op: op})
	s := takeSample()
	t.open = append(t.open, openSpan{idx: idx, start: s})
	t.spans[idx].Start = s.wall.Sub(t.t0)
	return idx
}

// end closes span idx, and any span opened inside it that a recovered panic
// left open.
func (t *tracer) end(idx int, err error) {
	if t == nil {
		return
	}
	now := takeSample()
	for len(t.open) > 0 {
		o := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		u := now.since(o.start)
		sp := &t.spans[o.idx]
		sp.End = sp.Start + u.Wall
		sp.CPU, sp.Allocs, sp.Bytes, sp.GCCycles, sp.GCCPU = u.CPU, u.Allocs, u.Bytes, u.GCCycles, u.GCCPU
		if o.idx != idx {
			sp.Err = "not closed"
			continue
		}
		if err != nil {
			sp.Err = firstLine(err.Error())
		}
		return
	}
}

// call runs fn inside a span; with a nil tracer it only runs fn.
func (t *tracer) call(name string, fn func() error) error {
	idx := t.begin(name, "")
	err := fn()
	t.end(idx, err)
	return err
}

// computeSelf fills Self for every span: its duration minus the part of its
// interval that its children cover. Children may overlap each other (calls
// made concurrently); the covered part is the union of their intervals,
// clipped to the parent.
func computeSelf(spans []span) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].dur() - covered(spans[i], children[spans[i].ID])
	}
}

// covered returns the length of the union of the children's intervals
// within the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// stageRow is one line of the stage split: the summed self time of every
// span of one name under the traced passes.
type stageRow struct {
	Name  string        `json:"name"`
	Calls int           `json:"calls"`
	Self  time.Duration `json:"self_ns"`
	Share float64       `json:"share"`
}

// stageSplit sums the self times of the spans below the roots named root by
// span name, as shares of those roots' total duration (the Fig. 11 split).
// computeSelf must have run.
func stageSplit(spans []span, root string) []stageRow {
	rootOf := map[int]int{} // span id -> id of its root
	var total time.Duration
	for _, s := range spans { // parents precede children
		if s.Parent == 0 {
			rootOf[s.ID] = s.ID
			if s.Name == root {
				total += s.dur()
			}
			continue
		}
		rootOf[s.ID] = rootOf[s.Parent]
	}
	byName := map[string]*stageRow{}
	var names []string
	for _, s := range spans {
		r := rootOf[s.ID]
		if spans[r-1].Name != root {
			continue
		}
		row := byName[s.Name]
		if row == nil {
			row = &stageRow{Name: s.Name}
			byName[s.Name] = row
			names = append(names, s.Name)
		}
		row.Calls++
		row.Self += s.Self
	}
	rows := make([]stageRow, 0, len(names))
	for _, n := range names {
		row := *byName[n]
		if total > 0 {
			row.Share = float64(row.Self) / float64(total)
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows
}

func printStageSplit(w io.Writer, title string, rows []stageRow) {
	fmt.Fprintf(w, "stage split (self time) for %s:\n", title)
	fmt.Fprintf(w, "  %-28s %6s %12s %7s\n", "span", "calls", "self_s", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %6d %12.6f %6.2f%%\n", r.Name, r.Calls, r.Self.Seconds(), 100*r.Share)
	}
}

// writeJSON writes doc as one indented JSON document.
func writeJSON(path string, doc any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
