// Package resilience is the distributed tier's one retry discipline.
// Policy is a capped exponential backoff with seeded jitter; every
// outbound client call in the service stack (worker register, poll,
// result and snapshot traffic, cache.Remote peeks and fills) routes its
// failure handling through one. Permanent stops a Policy early, and Sleep
// is the context-aware wait those loops use. So "degrades, never breaks"
// is one implementation instead of a convention re-invented per call site.
//
// Backoff jitter is seeded and deterministic: the k-th retry under a
// given seed always sleeps the same duration. Nothing here consults
// math/rand or the wall clock to make a decision, so fault-injection
// runs reproduce exactly from a logged seed.
package resilience

import (
	"context"
	"errors"
	"time"

	"repro/internal/rng"
)

// Policy is a capped exponential backoff retry schedule. The zero value
// is usable: sensible defaults apply (3 attempts, 100ms base doubling to
// a 5s cap). Policies are values — copy and tweak one per call site.
type Policy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Zero or negative means retry until ctx ends or the error is
	// Permanent — the shape register loops want.
	MaxAttempts int

	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it up to MaxDelay. Zero defaults to 100ms.
	BaseDelay time.Duration

	// MaxDelay caps the exponential growth. Zero defaults to 5s.
	MaxDelay time.Duration

	// Seed selects the deterministic jitter stream. Two policies with
	// the same seed sleep identical schedules; give fleet members
	// different seeds (hash of the worker name, say) so their retries
	// do not synchronize into thundering herds.
	Seed uint64
}

const (
	defaultMaxAttempts = 3
	defaultBaseDelay   = 100 * time.Millisecond
	defaultMaxDelay    = 5 * time.Second
)

func (p Policy) withDefaults() Policy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = defaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = defaultMaxDelay
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	return p
}

// Delay returns the backoff after the attempt-th consecutive failure
// (attempt >= 1): the capped exponential base for that attempt scaled
// into [1/2, 1) by seeded jitter. Deterministic — same policy seed and
// attempt number, same delay.
func (p Policy) Delay(attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	// 53 uniform bits from the seeded stream → fraction in [0, 1).
	u := rng.Mix((p.Seed ^ rng.Mix(uint64(attempt)+rng.Golden)) + rng.Golden)
	frac := float64(u>>11) / float64(1<<53)
	return time.Duration(float64(d) * (0.5 + 0.5*frac))
}

// Do runs op until it succeeds, returns a Permanent error, exhausts
// MaxAttempts, or ctx ends. Between failures it sleeps the seeded
// backoff schedule, aborting the sleep the moment ctx ends.
//
// The returned error is op's last error (unwrapped from Permanent), or
// ctx's error when ctx ended before the first attempt.
func (p Policy) Do(ctx context.Context, op func(ctx context.Context) error) error {
	p = p.withDefaults()
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := op(ctx)
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if p.MaxAttempts > 0 && attempt >= p.MaxAttempts {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		if !Sleep(ctx, p.Delay(attempt)) {
			return err
		}
	}
}

// Permanent wraps err so Policy.Do stops retrying and returns it as-is.
// Use it for failures more attempts cannot fix: a coordinator rejecting
// a build-identity mismatch, a parent context that ended mid-attempt.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Sleep waits d unless ctx ends first; it reports whether the full
// duration elapsed. This is the only sanctioned way to wait in retry
// loops under internal/dist and internal/cache — bare time.Sleep ignores
// shutdown and is banned there by internal/srcrules' TestSourceRules.
func Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
