// Package parwork runs independent work items on a small pool of worker
// goroutines. It is the shared fan-out primitive of the analysis pipeline.
//
// The pool schedules *groups* of items through per-worker deques with work
// stealing: a worker pushes the groups it spawns onto its own deque and
// drains them newest-first (depth-first, cache-warm), while idle workers
// steal the oldest queued group of a victim (the largest unit of pending
// work). Items of a claimed group are handed out one at a time, so a single
// large group fans out across every idle worker instead of pinning one.
//
// Work is splittable: an item executing on a worker may call
// Worker.RunGroup to spawn a nested group of sub-items. The spawning worker
// helps drain the pool while it waits for its group (it never blocks a pool
// slot), so nesting is deadlock-free at any worker count, including one.
// Results are written to caller-owned, index-addressed slots (no channels,
// no locks on the result path), and callers keep determinism by folding
// their per-item results in item order afterwards.
//
// Fault containment: a panicking work item is recovered, stamped with its
// stack and work-item identity (which survives stealing), and surfaced as a
// typed *PanicError — a crashing item fails its group like an erroring item
// instead of killing the process. After a failure no further items of the
// group are claimed. Cancellation is observed between items: a runaway
// analysis stops claiming work promptly after its context fires.
//
// NewExec builds the executor of one call: inline for a single worker, a
// fresh Pool otherwise. Long-lived callers (sweeps) share one Pool across
// phases so idle workers can steal chamber-level units from whichever
// analysis is still running.
package parwork

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError reports a panic recovered from a work item. The pool survives:
// sibling workers stop claiming items of the group and the error is
// returned like any other item failure. Item is the index within the
// group the item was spawned into, so identity is preserved even when the
// item was stolen by another worker.
type PanicError struct {
	Item   int    // work item that panicked (group-relative index)
	Worker int    // worker id that ran the item
	Value  any    // the recovered panic value
	Stack  []byte // stack of the panicking goroutine at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parwork: panic on item %d (worker %d): %v\n%s", e.Item, e.Worker, e.Value, e.Stack)
}

// GroupFunc is the work function of a group: it receives the worker
// executing the item (usable as an Exec for spawning nested groups) and the
// item index 0..n-1.
type GroupFunc func(w *Worker, item int) error

// Exec runs groups of independent items. It is implemented by *Pool
// (submission from a coordinating goroutine that is not itself a pool
// worker) and by *Worker (submission from inside a running item, which
// helps drain the pool while waiting). An Exec with Workers() == 1 may run
// everything inline on the calling goroutine.
type Exec interface {
	// RunGroup executes fn(w, 0..n-1), stops claiming items after the first
	// failure or cancellation, and returns the error of the lowest-indexed
	// failed item (or the context error).
	RunGroup(ctx context.Context, n int, fn GroupFunc) error
	// RunGroupTimed is RunGroup additionally reporting every pool worker's
	// busy time: the sum of the wall-clock durations of the items of this
	// group the worker executed. A worker that claimed no item of the group
	// reports zero. The slice has Workers() entries and is returned even
	// alongside a non-nil error.
	RunGroupTimed(ctx context.Context, n int, fn GroupFunc) ([]time.Duration, error)
	// Workers returns the parallelism of the executor.
	Workers() int
	// PoolStats returns the scheduling counters of the underlying pool
	// (zeros for an inline executor).
	PoolStats() PoolStats
}

// PoolStats are the monotonic scheduling counters of a pool.
type PoolStats struct {
	// Steals counts items claimed from another worker's deque.
	Steals int64
	// Splits counts groups spawned from inside a running item
	// (Worker.RunGroup), i.e. work items that split into sub-items.
	Splits int64
}

// group is one RunGroup call: a block of n items claimed one at a time.
type group struct {
	ctx       context.Context
	fn        GroupFunc
	n         int
	next      int  // next unclaimed item (guarded by the pool mutex)
	pending   int  // items not yet finished or skipped
	home      int  // deque the group was pushed to; -1 for the inbox
	queued    bool // still sitting in a deque or the inbox
	failed    bool
	cancelled bool
	done      bool
	errs      []error
	times     []time.Duration
}

// err returns the group outcome: the error of the lowest-indexed failed
// item, the context error after a cancellation, or nil.
func (g *group) err() error {
	for _, e := range g.errs {
		if e != nil {
			return e
		}
	}
	if g.cancelled {
		return g.ctx.Err()
	}
	return nil
}

// Pool is a fixed set of worker goroutines sharing work through per-worker
// deques with stealing. Create with NewPool, release with Close. All
// methods are safe for concurrent use; groups submitted concurrently share
// the workers.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]*group // per-worker queues of groups with unclaimed items
	inbox  []*group   // groups submitted by non-worker goroutines
	closed bool
	nw     int
	steals atomic.Int64
	splits atomic.Int64
	wg     sync.WaitGroup
}

// NewPool starts a pool with the given number of worker goroutines (values
// below one are clamped to one).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{nw: workers, deques: make([][]*group, workers)}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		w := &Worker{p: p, id: i}
		p.wg.Add(1)
		go p.workerLoop(w)
	}
	return p
}

// Close stops the workers after the queued work drains. It must be called
// after every RunGroup call on the pool has returned.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Workers returns the number of worker goroutines of the pool.
func (p *Pool) Workers() int { return p.nw }

// PoolStats returns the monotonic scheduling counters of the pool.
func (p *Pool) PoolStats() PoolStats {
	return PoolStats{Steals: p.steals.Load(), Splits: p.splits.Load()}
}

// RunGroup submits a group from a coordinating goroutine and waits for it.
func (p *Pool) RunGroup(ctx context.Context, n int, fn GroupFunc) error {
	_, err := p.RunGroupTimed(ctx, n, fn)
	return err
}

// RunGroupTimed submits a group from a coordinating goroutine and waits for
// it, reporting per-worker busy time. The coordinator does not execute
// items itself; the pool workers claim them.
func (p *Pool) RunGroupTimed(ctx context.Context, n int, fn GroupFunc) ([]time.Duration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &group{ctx: ctx, fn: fn, n: n, pending: n, home: -1,
		errs: make([]error, n), times: make([]time.Duration, p.nw)}
	if n == 0 {
		return g.times, ctx.Err()
	}
	p.mu.Lock()
	p.inbox = append(p.inbox, g)
	g.queued = true
	p.cond.Broadcast()
	for !g.done {
		p.cond.Wait()
	}
	p.mu.Unlock()
	return g.times, g.err()
}

// workerLoop claims and executes items until the pool closes.
func (p *Pool) workerLoop(w *Worker) {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		g, item := p.claimLocked(w.id)
		if g != nil {
			p.mu.Unlock()
			p.execute(w, g, item)
			p.mu.Lock()
			continue
		}
		if p.closed {
			break
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// claimLocked picks the next item for worker wid: its own deque newest
// group first (depth-first keeps a splitting worker on its own sub-tree),
// then the inbox oldest first, then stealing the oldest queued group of
// another worker — the unit with the most unclaimed work. A failed claim
// always dequeues the inspected group, so each queue is drained by
// re-inspecting the same end. Returns (nil, 0) when nothing is claimable.
func (p *Pool) claimLocked(wid int) (*group, int) {
	for len(p.deques[wid]) > 0 {
		g := p.deques[wid][len(p.deques[wid])-1]
		if item, ok := p.claimFromLocked(g); ok {
			return g, item
		}
	}
	for len(p.inbox) > 0 {
		g := p.inbox[0]
		if item, ok := p.claimFromLocked(g); ok {
			return g, item
		}
	}
	for off := 1; off < p.nw; off++ {
		v := (wid + off) % p.nw
		for len(p.deques[v]) > 0 {
			g := p.deques[v][0]
			if item, ok := p.claimFromLocked(g); ok {
				p.steals.Add(1)
				return g, item
			}
		}
	}
	return nil, 0
}

// claimFromLocked claims one item of g, dequeuing the group once it has no
// further claimable items. Cancellation and failure are checked per claim.
func (p *Pool) claimFromLocked(g *group) (int, bool) {
	if !g.failed && !g.cancelled && g.ctx.Err() != nil {
		g.cancelled = true
		p.skipRestLocked(g)
	}
	if g.failed || g.cancelled || g.next >= g.n {
		p.dequeueLocked(g)
		return 0, false
	}
	item := g.next
	g.next++
	if g.next >= g.n {
		p.dequeueLocked(g)
	}
	return item, true
}

// skipRestLocked accounts the unclaimed items of a failed or cancelled
// group as finished so the group can complete.
func (p *Pool) skipRestLocked(g *group) {
	skipped := g.n - g.next
	g.next = g.n
	g.pending -= skipped
	p.dequeueLocked(g)
	if g.pending <= 0 && !g.done {
		g.done = true
		p.cond.Broadcast()
	}
}

// dequeueLocked removes g from its queue (no-op if already removed).
func (p *Pool) dequeueLocked(g *group) {
	if !g.queued {
		return
	}
	g.queued = false
	q := &p.inbox
	if g.home >= 0 {
		q = &p.deques[g.home]
	}
	for i, x := range *q {
		if x == g {
			*q = append((*q)[:i], (*q)[i+1:]...)
			return
		}
	}
}

// execute runs one claimed item and accounts its outcome.
func (p *Pool) execute(w *Worker, g *group, item int) {
	t0 := time.Now()
	err := protectGroup(g.fn, w, item)
	dt := time.Since(t0)
	p.mu.Lock()
	g.times[w.id] += dt
	if err != nil {
		g.errs[item] = err
		if !g.failed {
			g.failed = true
			skipped := g.n - g.next
			g.next = g.n
			g.pending -= skipped
			p.dequeueLocked(g)
		}
	}
	g.pending--
	if g.pending <= 0 && !g.done {
		g.done = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Worker is the execution context of a running item. It implements Exec:
// a group spawned through it goes onto the worker's own deque (stealable by
// idle workers), and the worker helps drain the pool while waiting for the
// group instead of blocking a pool slot. The zero Worker (or InlineExec) is
// a valid single-threaded executor running everything inline.
type Worker struct {
	p  *Pool // nil for the inline executor
	id int
}

// InlineExec returns an executor that runs every group inline on the
// calling goroutine, with no pool and no extra goroutines.
func InlineExec() Exec { return &Worker{} }

// NewExec returns an executor with the given parallelism together with a
// release function: an inline executor for one worker (release is a no-op),
// a fresh pool otherwise (release closes it).
func NewExec(workers int) (Exec, func()) {
	if workers <= 1 {
		return InlineExec(), func() {}
	}
	p := NewPool(workers)
	return p, p.Close
}

// ID returns the pool worker id (0 for the inline executor). Callers use it
// to index per-worker accumulators.
func (w *Worker) ID() int { return w.id }

// Workers returns the parallelism of the pool the worker belongs to.
func (w *Worker) Workers() int {
	if w.p == nil {
		return 1
	}
	return w.p.nw
}

// PoolStats returns the scheduling counters of the worker's pool.
func (w *Worker) PoolStats() PoolStats {
	if w.p == nil {
		return PoolStats{}
	}
	return w.p.PoolStats()
}

// RunGroup spawns a nested group and helps the pool until it completes.
func (w *Worker) RunGroup(ctx context.Context, n int, fn GroupFunc) error {
	_, err := w.RunGroupTimed(ctx, n, fn)
	return err
}

// RunGroupTimed spawns a nested group onto the worker's own deque and
// executes pool work (its own items first, then anything stealable) until
// the group completes, reporting per-worker busy time for the group.
func (w *Worker) RunGroupTimed(ctx context.Context, n int, fn GroupFunc) ([]time.Duration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if w.p == nil {
		return runInline(ctx, w, n, fn)
	}
	p := w.p
	g := &group{ctx: ctx, fn: fn, n: n, pending: n, home: w.id,
		errs: make([]error, n), times: make([]time.Duration, p.nw)}
	if n == 0 {
		return g.times, ctx.Err()
	}
	p.splits.Add(1)
	p.mu.Lock()
	p.deques[w.id] = append(p.deques[w.id], g)
	g.queued = true
	p.cond.Broadcast()
	for !g.done {
		g2, item := p.claimLocked(w.id)
		if g2 != nil {
			p.mu.Unlock()
			p.execute(w, g2, item)
			p.mu.Lock()
			continue
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
	return g.times, g.err()
}

// runInline executes a group serially on the calling goroutine, reusing the
// inline worker as the execution context so nested spawns stay inline.
func runInline(ctx context.Context, w *Worker, n int, fn GroupFunc) ([]time.Duration, error) {
	times := make([]time.Duration, 1)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return times, err
		}
		t0 := time.Now()
		err := protectGroup(fn, w, i)
		times[0] += time.Since(t0)
		if err != nil {
			return times, err
		}
	}
	return times, nil
}

// protectGroup invokes fn(w, item), converting a panic into a *PanicError
// so one crashing item cannot take down the process.
func protectGroup(fn GroupFunc, w *Worker, item int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Item: item, Worker: w.id, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(w, item)
}

// HardestFirst returns the permutation of 0..len(weights)-1 that orders
// items by descending weight (stable, so equal weights keep item order).
// Pools whose items vary by orders of magnitude schedule through it —
// fn(order[scheduled]) — so a giant item claimed last cannot stall the pool
// while the other workers idle. The permutation affects execution order
// only; results stay index-addressed and deterministic.
func HardestFirst(weights []int) []int {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
	return order
}
