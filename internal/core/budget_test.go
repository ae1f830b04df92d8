package core

import (
	"testing"
	"time"
)

// TestBudgetAllowsNoDeadline covers the branch for test binaries running
// without -timeout: no deadline means no budget to degrade against, so
// every request is granted and nothing is skipped.
func TestBudgetAllowsNoDeadline(t *testing.T) {
	_, allowed := budgetAllows(time.Hour, time.Time{}, false, time.Now())
	if !allowed {
		t.Fatal("no deadline must grant every budget request")
	}
}

// TestBudgetAllowsWithDeadline covers the deadline branch: requests within
// the remaining budget (minus the slack) are granted, larger ones are not.
func TestBudgetAllowsWithDeadline(t *testing.T) {
	now := time.Unix(1000, 0)
	deadline := now.Add(10 * time.Minute)

	remaining, allowed := budgetAllows(5*time.Minute, deadline, true, now)
	if !allowed {
		t.Fatalf("5m need against %v remaining must be allowed", remaining)
	}
	if want := 10*time.Minute - budgetSlack; remaining != want {
		t.Fatalf("remaining = %v, want %v", remaining, want)
	}

	if _, allowed := budgetAllows(10*time.Minute, deadline, true, now); allowed {
		t.Fatal("10m need against a 10m deadline must be rejected (slack)")
	}

	// Exactly at the boundary: remaining - slack == need is still allowed.
	if _, allowed := budgetAllows(10*time.Minute-budgetSlack, deadline, true, now); !allowed {
		t.Fatal("need equal to remaining-minus-slack must be allowed")
	}

	// Past the deadline nothing fits.
	if _, allowed := budgetAllows(time.Second, deadline, true, deadline.Add(time.Minute)); allowed {
		t.Fatal("requests past the deadline must be rejected")
	}
}

// TestTimeAllows covers the deadline arithmetic under budgetAllows.
func TestTimeAllows(t *testing.T) {
	now := time.Unix(1000, 0)
	if _, ok := timeAllows(time.Hour, time.Time{}, false, now, time.Second); !ok {
		t.Fatal("no deadline must always fit")
	}
	deadline := now.Add(10 * time.Second)
	if left, ok := timeAllows(5*time.Second, deadline, true, now, 2*time.Second); !ok || left != 3*time.Second {
		t.Fatalf("fit: left=%v ok=%v", left, ok)
	}
	if _, ok := timeAllows(9*time.Second, deadline, true, now, 2*time.Second); ok {
		t.Fatal("step past the slack reserve must not fit")
	}
}
