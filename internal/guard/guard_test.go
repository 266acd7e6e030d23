package guard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestCheck(t *testing.T) {
	if err := Check(DimMicroOps, 0, 1<<30); err != nil {
		t.Fatalf("unlimited dimension errored: %v", err)
	}
	if err := Check(DimMicroOps, 10, 10); err != nil {
		t.Fatalf("count == limit must pass: %v", err)
	}
	err := Check(DimSimSteps, 10, 11)
	if err == nil {
		t.Fatal("count > limit must fail")
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("%v does not match ErrBudget", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("%v is not a *BudgetError", err)
	}
	if be.Dimension != DimSimSteps || be.Limit != 10 || be.Count != 11 {
		t.Fatalf("bad fields: %+v", be)
	}
	for _, want := range []string{DimSimSteps, "11", "10"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("message %q missing %q", err, want)
		}
	}
	// A BudgetError matches only ErrBudget, not the cancellation sentinels.
	if errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadline) {
		t.Error("BudgetError matched a cancellation sentinel")
	}
}

func TestBudgetValidate(t *testing.T) {
	if err := (Budget{}).Validate(); err != nil {
		t.Fatalf("zero budget invalid: %v", err)
	}
	if err := (Budget{MaxMicroOps: 5, MaxSimSteps: 1 << 40}).Validate(); err != nil {
		t.Fatalf("positive budget invalid: %v", err)
	}
	err := Budget{MaxNetGates: -1}.Validate()
	if err == nil || !strings.Contains(err.Error(), DimNetGates) {
		t.Fatalf("negative limit not rejected by dimension: %v", err)
	}
}

func TestCtx(t *testing.T) {
	if err := Ctx(nil); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if err := Ctx(context.Background()); err != nil {
		t.Fatalf("live ctx: %v", err)
	}
	c, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Ctx(c); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ctx gave %v, want ErrCanceled", err)
	}
	d, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if err := Ctx(d); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired ctx gave %v, want ErrDeadline", err)
	}
}

func TestIsGuard(t *testing.T) {
	for _, err := range []error{ErrBudget, ErrCanceled, ErrDeadline, Check(DimMicroOps, 1, 2)} {
		if !IsGuard(err) {
			t.Errorf("IsGuard(%v) = false", err)
		}
	}
	if IsGuard(errors.New("boom")) || IsGuard(nil) {
		t.Error("IsGuard matched a non-guard error")
	}
}
