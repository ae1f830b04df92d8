package budget

import (
	"context"
	"errors"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var m *Meter
	if m.Total() != 0 || m.Limit() != 0 || m.Err() != nil {
		t.Fatal("nil meter must be inert")
	}
	if m.Context() == nil {
		t.Fatal("nil meter must still yield a context")
	}
	op := m.Op("anything")
	if op != nil {
		t.Fatal("nil meter must yield nil ops")
	}
	if err := op.Charge(1 << 40); err != nil {
		t.Fatalf("nil op charge: %v", err)
	}
	if op.Err() != nil || op.Used() != 0 {
		t.Fatal("nil op must be inert")
	}
}

func TestOpLimit(t *testing.T) {
	m := New(context.Background(), 10)
	op := m.Op("test stage")
	if err := op.Charge(10); err != nil {
		t.Fatalf("charge at limit: %v", err)
	}
	err := op.Charge(1)
	if err == nil {
		t.Fatal("expected Exceeded past the limit")
	}
	var ex *Exceeded
	if !errors.As(err, &ex) {
		t.Fatalf("want *Exceeded, got %T: %v", err, err)
	}
	if !errors.Is(err, ErrExceeded) {
		t.Fatal("Exceeded must match ErrExceeded")
	}
	if ex.Stage != "test stage" || ex.Cost != 11 || ex.Limit != 10 {
		t.Fatalf("bad provenance: %+v", ex)
	}
	if IsCancellation(err) {
		t.Fatal("cost-limit error must not look like cancellation")
	}
}

func TestPerOpLimitsAreIndependent(t *testing.T) {
	m := New(context.Background(), 5)
	for i := 0; i < 3; i++ {
		if err := m.Op("op").Charge(5); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if got := m.Total(); got != 15 {
		t.Fatalf("meter total = %d, want 15", got)
	}
}

func TestUnlimitedMeterStillObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := New(ctx, 0)
	op := m.Op("scan")
	if err := op.Charge(ctxCheckStride); err != nil {
		t.Fatalf("pre-cancel charge: %v", err)
	}
	cancel()
	var err error
	for i := 0; i < 2; i++ { // at most one full stride before the check fires
		err = op.Charge(ctxCheckStride)
		if err != nil {
			break
		}
	}
	if !IsCancellation(err) {
		t.Fatalf("want cancellation, got %v", err)
	}
	if op.Err() == nil || m.Err() == nil {
		t.Fatal("Err must report pending cancellation")
	}
}

func TestLimitOp(t *testing.T) {
	if LimitOp("x", 0) != nil {
		t.Fatal("non-positive limit must yield a nil (unlimited) op")
	}
	op := LimitOp("standalone", 2)
	if err := op.Charge(2); err != nil {
		t.Fatalf("within limit: %v", err)
	}
	if err := op.Charge(1); !errors.Is(err, ErrExceeded) {
		t.Fatalf("want ErrExceeded, got %v", err)
	}
}

func TestOpLimited(t *testing.T) {
	m := New(context.Background(), 100)
	op := m.OpLimited("tight", 1)
	if err := op.Charge(2); !errors.Is(err, ErrExceeded) {
		t.Fatalf("explicit limit must override meter default: %v", err)
	}
	var nilMeter *Meter
	if err := nilMeter.OpLimited("tight", 1).Charge(2); !errors.Is(err, ErrExceeded) {
		t.Fatalf("OpLimited on nil meter must still enforce the limit: %v", err)
	}
}

// OpLimited starts a new budgeted operation with an explicit limit,
// overriding the meter default (0 = unlimited).
func (m *Meter) OpLimited(stage string, limit int64) *Op {
	if m == nil {
		return LimitOp(stage, limit)
	}
	return &Op{meter: m, stage: stage, limit: limit}
}
