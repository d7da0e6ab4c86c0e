package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestDelayDeterministicAndCapped(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 800 * time.Millisecond, Seed: 42}
	q := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 800 * time.Millisecond, Seed: 42}
	for attempt := 1; attempt <= 12; attempt++ {
		d1, d2 := p.Delay(attempt), q.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: same seed gave %v and %v", attempt, d1, d2)
		}
		// Jitter scales the capped exponential base into [1/2, 1).
		base := 100 * time.Millisecond << (attempt - 1)
		if base > 800*time.Millisecond {
			base = 800 * time.Millisecond
		}
		if d1 < base/2 || d1 >= base {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d1, base/2, base)
		}
	}
	other := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 800 * time.Millisecond, Seed: 43}
	var diverged bool
	for attempt := 1; attempt <= 12; attempt++ {
		if other.Delay(attempt) != p.Delay(attempt) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestDelayHugeAttemptDoesNotOverflow(t *testing.T) {
	p := Policy{BaseDelay: time.Second, MaxDelay: 4 * time.Second}
	if d := p.Delay(500); d < 2*time.Second || d >= 4*time.Second {
		t.Fatalf("attempt 500 delay %v escaped the cap window", d)
	}
}

func TestDoStopsAtMaxAttempts(t *testing.T) {
	var calls int
	errBoom := errors.New("boom")
	p := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want %v", err, errBoom)
	}
	if calls != 3 {
		t.Fatalf("op ran %d times, want 3", calls)
	}
}

func TestDoSucceedsAfterRetry(t *testing.T) {
	var calls int
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil after 3", err, calls)
	}
}

func TestDoPermanentStopsImmediately(t *testing.T) {
	var calls int
	errFatal := errors.New("rejected")
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	err := p.Do(context.Background(), func(context.Context) error {
		calls++
		return Permanent(fmt.Errorf("wrapped: %w", errFatal))
	})
	if calls != 1 {
		t.Fatalf("op ran %d times, want 1", calls)
	}
	if !errors.Is(err, errFatal) {
		t.Fatalf("err = %v, want chain containing %v", err, errFatal)
	}
}

func TestDoUnlimitedAttemptsUntilCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	p := Policy{MaxAttempts: 0, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	errTransient := errors.New("transient")
	err := p.Do(ctx, func(context.Context) error {
		calls++
		if calls == 10 {
			cancel()
		}
		return errTransient
	})
	if !errors.Is(err, errTransient) {
		t.Fatalf("err = %v, want last op error", err)
	}
	if calls != 10 {
		t.Fatalf("op ran %d times, want 10", calls)
	}
}

func TestDoCtxAbortsBackoffSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 2, BaseDelay: time.Hour, MaxDelay: time.Hour}
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, func(context.Context) error { return errors.New("fail") })
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do still sleeping an hour-long backoff after ctx cancel")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Do took %v to notice cancellation", elapsed)
	}
}

func TestDoCtxAlreadyDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls int
	err := Policy{}.Do(ctx, func(context.Context) error { calls++; return nil })
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("err=%v calls=%d, want Canceled with zero attempts", err, calls)
	}
}

func TestSleepRespectsCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if Sleep(ctx, time.Hour) {
		t.Fatal("Sleep reported a full hour elapsed under a cancelled ctx")
	}
	if !Sleep(context.Background(), 0) {
		t.Fatal("zero-duration sleep under a live ctx should report completion")
	}
}
