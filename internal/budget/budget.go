// Package budget provides the single cost-accounting mechanism behind the
// graceful degradation ladder. Every potentially super-linear operation of
// the symbolic pipeline (Fourier-Motzkin system fan-out, point enumeration)
// charges a cost meter; when an operation exceeds its deterministic limit it
// fails with a typed *Exceeded error carrying provenance, and bounded-mode
// callers degrade that one operation to certified interval bounds instead of
// failing the whole analysis.
//
// Determinism: limits are enforced per operation, not against the shared
// meter total. A shared limit consumed concurrently would make *which* piece
// degrades depend on goroutine scheduling; per-operation limits keep bounded
// results bit-identical across worker counts. The meter total is
// observability only (Stats.BudgetUsed).
package budget

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrExceeded is the sentinel matched by errors.Is for every *Exceeded
// error, regardless of which stage produced it.
var ErrExceeded = errors.New("budget exceeded")

// Exceeded reports that one budgeted operation ran past its deterministic
// cost limit. Stage names the pipeline operation ("capacity piece count",
// "stack distance card", ...) so "why did this degrade" is answerable from
// the error alone.
type Exceeded struct {
	Stage string // pipeline operation that tripped the limit
	Cost  int64  // cost units consumed by the operation when it tripped
	Limit int64  // the deterministic per-operation limit
}

func (e *Exceeded) Error() string {
	return fmt.Sprintf("budget exceeded: %s spent %d of %d cost units", e.Stage, e.Cost, e.Limit)
}

// Is makes errors.Is(err, ErrExceeded) match any *Exceeded.
func (e *Exceeded) Is(target error) bool { return target == ErrExceeded }

// IsCancellation reports whether err stems from context cancellation or a
// deadline rather than a cost limit. Cancellation must abort the analysis;
// cost-limit errors merely degrade one operation.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ctxCheckStride bounds how many cost units may be charged between two
// context checks, so cancellation latency stays proportional to real work.
const ctxCheckStride = 256

// Meter is the per-analysis cost accountant: it carries the analysis
// context for cancellation and accumulates the monotonic total of cost
// units charged by all operations (concurrency-safe; operations themselves
// are single-goroutine). The zero limit means operations are unlimited and
// only cancellation is observed. A nil *Meter is valid and inert.
type Meter struct {
	ctx   context.Context
	limit int64
	total atomic.Int64
}

// New returns a meter whose operations are capped at perOpLimit cost units
// each (0 = unlimited) and observe ctx for cancellation.
func New(ctx context.Context, perOpLimit int64) *Meter {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Meter{ctx: ctx, limit: perOpLimit}
}

// Total returns the monotonic number of cost units charged so far across
// all operations of the meter.
func (m *Meter) Total() int64 {
	if m == nil {
		return 0
	}
	return m.total.Load()
}

// Limit returns the per-operation cost limit (0 = unlimited).
func (m *Meter) Limit() int64 {
	if m == nil {
		return 0
	}
	return m.limit
}

// Context returns the analysis context carried by the meter.
func (m *Meter) Context() context.Context {
	if m == nil {
		return context.Background()
	}
	return m.ctx
}

// Err reports pending cancellation of the meter's context without charging
// any cost.
func (m *Meter) Err() error {
	if m == nil {
		return nil
	}
	return m.ctx.Err()
}

// Op starts a new budgeted operation at the meter's per-operation limit.
func (m *Meter) Op(stage string) *Op {
	if m == nil {
		return nil
	}
	return &Op{meter: m, stage: stage, limit: m.limit}
}

// LimitOp returns a standalone operation with a deterministic limit and no
// meter (no cancellation, no shared total). Used where a cap is needed but
// no analysis meter is in scope, e.g. the parametric per-piece budget.
func LimitOp(stage string, limit int64) *Op {
	if limit <= 0 {
		return nil
	}
	return &Op{stage: stage, limit: limit}
}

// Op accounts for one budgeted operation. It is used from a single
// goroutine; only the flush into the shared meter total is synchronized. A
// nil *Op is valid: charges succeed and cost nothing.
type Op struct {
	meter      *Meter
	stage      string
	limit      int64
	used       int64
	sinceCheck int64
}

// Charge adds n cost units to the operation. It returns a *Exceeded error
// once the operation's limit is crossed, or the context error if the
// meter's context was cancelled. Callers must stop the operation on any
// non-nil return.
func (op *Op) Charge(n int64) error {
	if op == nil {
		return nil
	}
	op.used += n
	if op.meter != nil {
		op.meter.total.Add(n)
		op.sinceCheck += n
		if op.sinceCheck >= ctxCheckStride {
			op.sinceCheck = 0
			if err := op.meter.ctx.Err(); err != nil {
				return err
			}
		}
	}
	if op.limit > 0 && op.used > op.limit {
		return &Exceeded{Stage: op.stage, Cost: op.used, Limit: op.limit}
	}
	return nil
}

// Err reports pending cancellation without charging cost.
func (op *Op) Err() error {
	if op == nil || op.meter == nil {
		return nil
	}
	return op.meter.ctx.Err()
}

// Used returns the cost units charged to the operation so far.
func (op *Op) Used() int64 {
	if op == nil {
		return 0
	}
	return op.used
}
