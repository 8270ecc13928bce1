package serve

import (
	"testing"
	"time"
)

// fakeClock is an injectable time source shared by the limiter,
// breaker, and snowflake tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestLimiterSpendsAndRefills(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(10, 5) // 10 tokens/s, bucket of 5
	l.now = clk.now
	l.last = clk.now()

	for i := 0; i < 5; i++ {
		if ok, _ := l.Allow(); !ok {
			t.Fatalf("request %d rejected with a full bucket", i)
		}
	}
	ok, retry := l.Allow()
	if ok {
		t.Fatal("6th request admitted from an empty bucket")
	}
	if want := 100 * time.Millisecond; retry != want {
		t.Errorf("retryAfter = %v, want %v (1 token at 10/s)", retry, want)
	}

	clk.advance(100 * time.Millisecond) // exactly one token refilled
	if ok, _ := l.Allow(); !ok {
		t.Error("request rejected after the refill interval it was told to wait")
	}
	if ok, _ := l.Allow(); ok {
		t.Error("second request admitted off a single refilled token")
	}
}

func TestLimiterSweepSpendsPerPoint(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(10, 10)
	l.now = clk.now
	l.last = clk.now()

	if ok, _ := l.AllowN(8); !ok {
		t.Fatal("8-point sweep rejected with 10 tokens banked")
	}
	if ok, _ := l.AllowN(8); ok {
		t.Fatal("second 8-point sweep admitted with only 2 tokens left")
	}
	if ok, _ := l.AllowN(2); !ok {
		t.Error("2-point request rejected with 2 tokens left")
	}
}

func TestLimiterOversizedRequestReportsFiniteHorizon(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(10, 10)
	l.now = clk.now
	l.last = clk.now()
	l.tokens = 0

	// A request larger than the burst can never fully accumulate; the
	// deficit is capped at the bucket so the hint stays finite.
	ok, retry := l.AllowN(1000)
	if ok {
		t.Fatal("1000-point request admitted against a 10-token bucket")
	}
	if want := time.Second; retry != want {
		t.Errorf("retryAfter = %v, want %v (full bucket at 10/s)", retry, want)
	}
}

func TestLimiterDefaultsAndNil(t *testing.T) {
	l := NewLimiter(0, 0)
	if l.rate != 50 || l.burst != 100 {
		t.Errorf("defaults = %g/%g, want 50/100", l.rate, l.burst)
	}
	var nilL *Limiter
	if ok, _ := nilL.AllowN(1_000_000); !ok {
		t.Error("nil limiter must admit everything")
	}
}
