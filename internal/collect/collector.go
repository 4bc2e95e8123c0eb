package collect

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"netsample/internal/dist"
)

// ErrAgent marks a typed error response from an agent: the transport
// worked and the agent answered, so retrying the same request cannot
// help.
var ErrAgent = errors.New("collect: agent error")

// Collector is the NOC-side poller: PollSnapshot reads one node agent's
// latest window snapshot. Every request is retried over transport
// faults with seeded-jitter exponential backoff; retrying is safe
// because a snapshot query is read-only. Deduplicating windows by
// (node, Seq) is the caller's job.
type Collector struct {
	// Timeout bounds each poll attempt end-to-end.
	Timeout time.Duration

	// Retries is the number of additional attempts after the first for
	// each request. Zero disables retrying.
	Retries int

	// Backoff is the base pause before the first retry; each further
	// retry doubles it, capped at MaxBackoff when set (and at half the
	// largest Duration when not). Zero retries immediately.
	Backoff    time.Duration
	MaxBackoff time.Duration

	// Jitter supplies the randomness for retry spacing: a uniform share
	// in [0, delay) is added to each backoff pause so a fleet of
	// collectors does not retry in lockstep. Callers pass a seeded
	// *dist.RNG so retry schedules replay run-to-run; access is
	// serialized under the collector's mutex. Nil disables jitter.
	Jitter *dist.RNG

	// Sleep is the seam backoff pauses go through. Nil means
	// time.Sleep; tests inject a no-op to keep fault soaks instant.
	Sleep func(time.Duration)

	mu sync.Mutex // guards Jitter
}

// retryDelay computes the pause before retry attempt n (1-based):
// exponential backoff from Backoff, capped at MaxBackoff, plus uniform
// jitter drawn from the collector's seeded RNG.
func (c *Collector) retryDelay(attempt int) time.Duration {
	if c.Backoff <= 0 {
		return 0
	}
	// Doubling saturates at half the largest Duration, so the delay
	// plus its jitter (less than the delay) stays positive.
	limit := time.Duration(math.MaxInt64 / 2)
	if c.MaxBackoff > 0 {
		limit = min(limit, c.MaxBackoff)
	}
	d := min(c.Backoff, limit)
	for i := 1; i < attempt && d < limit; i++ {
		d = min(2*d, limit)
	}
	c.mu.Lock()
	if c.Jitter != nil {
		d += time.Duration(c.Jitter.Int64N(int64(d)))
	}
	c.mu.Unlock()
	return d
}

// NewCollector returns a collector with sensible defaults: a 10 s
// per-attempt timeout and two retries spaced by exponential backoff.
func NewCollector() *Collector {
	return &Collector{Timeout: 10 * time.Second, Retries: 2, Backoff: 50 * time.Millisecond}
}

// PollSnapshot requests the agent's latest pipeline window snapshot,
// retrying transport faults. Agents without a snapshot source, or whose
// pipeline has not completed a window yet, answer with a wire error
// that surfaces here.
func (c *Collector) PollSnapshot(addr string) (*Snapshot, error) {
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if attempt > 0 {
			pause(c.Sleep, c.retryDelay(attempt))
		}
		payload, err := c.exchange(addr)
		if err == nil {
			return decodeSnapshot(payload)
		}
		if !retryable(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("collect: %s unreachable after %d attempts: %w", addr, c.Retries+1, lastErr)
}

// retryable classifies one failed exchange. Transport faults and
// corrupt frames are worth retrying — a snapshot query is read-only, so
// repeating it is harmless. A typed agent response or a protocol
// version mismatch is deterministic: the same request would fail the
// same way.
func retryable(err error) bool {
	return !errors.Is(err, ErrAgent) && !errors.Is(err, ErrVersion)
}

// exchange is a single snapshot-query attempt: dial, send, receive.
// TypeError responses become ErrAgent errors.
func (c *Collector) exchange(addr string) ([]byte, error) {
	d := net.Dialer{Timeout: c.Timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collect: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if c.Timeout > 0 {
		_ = conn.SetDeadline(deadline(c.Timeout))
	}
	if err := writeFrame(conn, TypeSnapshotQuery, nil); err != nil {
		return nil, fmt.Errorf("collect: send to %s: %w", addr, err)
	}
	respType, payload, err := readFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("collect: response from %s: %w", addr, err)
	}
	switch respType {
	case TypeSnapshot:
		return payload, nil
	case TypeError:
		return nil, fmt.Errorf("%w: agent %s: %s", ErrAgent, addr, payload)
	default:
		return nil, fmt.Errorf("%w: unexpected response type %d", ErrWire, respType)
	}
}
