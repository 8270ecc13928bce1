package serve

import (
	"math"
	"sync"
	"time"
)

// Limiter is a token-bucket admission controller: tokens refill at Rate
// per second up to Burst, and every admitted unit of work spends one.
// When the bucket cannot cover a request the limiter rejects it and
// says how long until it could — the Retry-After the HTTP layer sends
// with a 429, so well-behaved clients back off by exactly the refill
// schedule instead of hammering.
//
// The unit is a simulation point, not a request: a sweep of n points
// spends n tokens at admission, so a 1000-point sweep draws a
// proportionate share of the budget rather than slipping in as one
// cheap request.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time // injectable for tests
}

// NewLimiter builds a limiter refilling rate tokens/second with
// capacity burst. Nonpositive values fall back to 50/s and 100.
func NewLimiter(rate float64, burst int) *Limiter {
	if rate <= 0 {
		rate = 50
	}
	if burst <= 0 {
		burst = 100
	}
	l := &Limiter{rate: rate, burst: float64(burst), now: time.Now}
	l.tokens = l.burst
	l.last = l.now()
	return l
}

// AllowN spends n tokens if the bucket holds them. On rejection it
// returns how long until n tokens will have accumulated (capped at the
// time to fill the bucket from empty, so a request larger than the
// burst reports the honest "never under this budget" horizon rather
// than infinity).
func (l *Limiter) AllowN(n int) (ok bool, retryAfter time.Duration) {
	if l == nil || n <= 0 {
		return true, 0
	}
	need := float64(n)
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	l.tokens = math.Min(l.burst, l.tokens+now.Sub(l.last).Seconds()*l.rate)
	l.last = now
	if l.tokens >= need {
		l.tokens -= need
		return true, 0
	}
	deficit := math.Min(need, l.burst) - l.tokens
	return false, time.Duration(math.Ceil(deficit / l.rate * float64(time.Second)))
}

// Allow is AllowN(1).
func (l *Limiter) Allow() (bool, time.Duration) { return l.AllowN(1) }
