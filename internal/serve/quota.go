package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// quotaEvictLen is the client-map size above which admit opportunistically
// prunes idle buckets (full tokens, nothing in flight) so a churn of
// one-shot client ids cannot grow the map without bound.
const quotaEvictLen = 4096

// quotas is the per-client fairness layer: a token bucket bounding each
// client's admission rate plus a cap on its concurrently admitted
// queries, so one greedy client saturating the queue degrades itself, not
// everyone. Clients are identified by Request.ClientID (the X-Client-ID
// header on the HTTP surface); the empty id is exempt — anonymous traffic
// shares the global admission queue but carries no per-client bound.
type quotas struct {
	rate        float64 // tokens (admissions) per second; <= 0 disables the rate bound
	burst       float64 // bucket capacity
	maxInflight int     // concurrent admitted queries per client; <= 0 disables

	mu      sync.Mutex
	clients map[string]*clientBucket
}

type clientBucket struct {
	tokens   float64
	last     time.Time
	inflight int
}

// newQuotas builds the layer; returns nil (fully disabled, nil-safe
// methods) when neither bound is configured.
func newQuotas(rate, burst float64, maxInflight int) *quotas {
	if rate <= 0 && maxInflight <= 0 {
		return nil
	}
	if rate > 0 && burst < 1 {
		burst = math.Max(2*rate, 2)
	}
	return &quotas{
		rate:        rate,
		burst:       burst,
		maxInflight: maxInflight,
		clients:     make(map[string]*clientBucket),
	}
}

// admit charges one admission against the client's quota, or fails with a
// wrapped ErrQuotaExceeded carrying the quota detail and a Retry-After
// hint. On success the caller must pair it with exactly one release.
func (q *quotas) admit(clientID string, now time.Time) error {
	if q == nil || clientID == "" {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.clients[clientID]
	if b == nil {
		if len(q.clients) >= quotaEvictLen {
			q.evictIdleLocked(now)
		}
		b = &clientBucket{tokens: q.burst, last: now}
		q.clients[clientID] = b
	}
	if q.rate > 0 {
		elapsed := now.Sub(b.last).Seconds()
		if elapsed > 0 {
			b.tokens = math.Min(q.burst, b.tokens+elapsed*q.rate)
			b.last = now
		}
	}
	if q.maxInflight > 0 && b.inflight >= q.maxInflight {
		return retryHint(
			fmt.Errorf("%w: client %q at max in-flight (%d)", ErrQuotaExceeded, clientID, q.maxInflight),
			1)
	}
	if q.rate > 0 {
		if b.tokens < 1 {
			// Honest backoff: the time until the bucket refills one token.
			wait := (1 - b.tokens) / q.rate
			return retryHint(
				fmt.Errorf("%w: client %q over rate limit (%.3g/s, burst %.3g)", ErrQuotaExceeded, clientID, q.rate, q.burst),
				int(math.Ceil(wait)))
		}
		b.tokens--
	}
	b.inflight++
	return nil
}

// release returns one in-flight slot; called when an admitted query
// completes (any outcome).
func (q *quotas) release(clientID string) {
	if q == nil || clientID == "" {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if b := q.clients[clientID]; b != nil && b.inflight > 0 {
		b.inflight--
	}
}

// evictIdleLocked drops buckets that carry no state worth keeping: full
// tokens (or rate disabled) and nothing in flight — readmitting such a
// client recreates an identical bucket.
func (q *quotas) evictIdleLocked(now time.Time) {
	for id, b := range q.clients {
		if b.inflight > 0 {
			continue
		}
		tokens := b.tokens
		if q.rate > 0 {
			tokens = math.Min(q.burst, tokens+now.Sub(b.last).Seconds()*q.rate)
		}
		if q.rate <= 0 || tokens >= q.burst {
			delete(q.clients, id)
		}
	}
}

// minRetryAfterSeconds and maxRetryAfterSeconds bound every 429 backoff
// hint: a shed client waits at least a second, and one pathological
// traversal cannot tell clients to go away for minutes.
const (
	minRetryAfterSeconds = 1
	maxRetryAfterSeconds = 60
)

// retryHintError decorates a shed error with the prediction-derived
// Retry-After seconds the HTTP layer should send. Unwraps to the shed
// reason, so errors.Is taxonomy matching is unaffected.
type retryHintError struct {
	err     error
	seconds int
}

func (e *retryHintError) Error() string { return e.err.Error() }
func (e *retryHintError) Unwrap() error { return e.err }

// retryHint wraps err with a Retry-After hint clamped to
// [minRetryAfterSeconds, maxRetryAfterSeconds].
func retryHint(err error, seconds int) error {
	if seconds < minRetryAfterSeconds {
		seconds = minRetryAfterSeconds
	}
	if seconds > maxRetryAfterSeconds {
		seconds = maxRetryAfterSeconds
	}
	return &retryHintError{err: err, seconds: seconds}
}

// RetryAfterHint extracts the Retry-After seconds attached to an admission
// shed. Every shed Do returns with HTTP status 429 carries one: queue-full
// and infeasible-deadline sheds derive it from the predicted backlog,
// quota sheds from the client's refill rate.
func RetryAfterHint(err error) (int, bool) {
	var rh *retryHintError
	if errors.As(err, &rh) {
		return rh.seconds, true
	}
	return 0, false
}
