package collect

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"netsample/internal/arts"
	"netsample/internal/dist"
)

// DefaultMaxConcurrent bounds PollAll's parallelism when MaxConcurrent
// is zero: enough to hide per-agent latency across a backbone's worth
// of nodes without dialing every node at once.
const DefaultMaxConcurrent = 8

// ErrAgent marks a typed error response from an agent: the transport
// worked and the agent answered, so retrying the same request cannot
// help.
var ErrAgent = errors.New("collect: agent error")

// Collector is the NOC-side poller: given the addresses of the backbone
// node agents, it polls them all (concurrently, as the real collection
// host queried nodes) and merges the reports into a backbone-wide view.
//
// Every request is retried over transport faults with seeded-jitter
// exponential backoff. Retrying a poll is safe: the collector tracks
// the last cycle sequence received per agent and acknowledges it in the
// next poll request, so an agent whose response was lost retransmits
// the same cycle rather than cutting (and losing) a fresh interval.
// The cycle protocol assumes one collector per agent with polls issued
// sequentially per address, which PollAll preserves.
type Collector struct {
	// Timeout bounds each poll attempt end-to-end.
	Timeout time.Duration

	// Retries is the number of additional attempts after the first for
	// each request. Zero disables retrying.
	Retries int

	// Backoff is the base pause before the first retry; each further
	// retry doubles it, capped at MaxBackoff when set. Zero retries
	// immediately.
	Backoff    time.Duration
	MaxBackoff time.Duration

	// Jitter supplies the randomness for retry spacing: a uniform share
	// in [0, delay) is added to each backoff pause so a fleet of
	// collectors does not retry in lockstep. Callers pass a seeded
	// *dist.RNG so retry schedules replay run-to-run; access is
	// serialized under the collector's mutex. Nil disables jitter.
	Jitter *dist.RNG

	// Clock supplies the current time for dial deadlines. Nil means
	// the real time; tests inject a fake.
	Clock func() time.Time

	// Sleep is the seam backoff pauses go through. Nil means
	// time.Sleep; tests inject a no-op to keep fault soaks instant.
	Sleep func(time.Duration)

	// MaxConcurrent caps how many agents PollAll polls at once
	// (0 = DefaultMaxConcurrent).
	MaxConcurrent int

	mu    sync.Mutex
	acked map[string]uint64 // addr → last cycle sequence received
}

// now reads the collector's clock, the package's sanctioned wall-clock
// seam on the NOC side.
func (c *Collector) now() time.Time {
	if c.Clock != nil {
		return c.Clock()
	}
	return time.Now() //nslint:allow noclock default of the injectable Clock seam
}

// pause sleeps for d through the injectable seam.
func (c *Collector) pause(d time.Duration) {
	if d <= 0 {
		return
	}
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

// retryDelay computes the pause before retry attempt n (1-based):
// exponential backoff from Backoff, capped at MaxBackoff, plus uniform
// jitter drawn from the collector's seeded RNG.
func (c *Collector) retryDelay(attempt int) time.Duration {
	if c.Backoff <= 0 {
		return 0
	}
	d := c.Backoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if c.MaxBackoff > 0 && d >= c.MaxBackoff {
			break
		}
	}
	if c.MaxBackoff > 0 && d > c.MaxBackoff {
		d = c.MaxBackoff
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

// PollResult is the outcome of polling one agent.
type PollResult struct {
	Addr   string
	Report *Report
	Err    error
}

// ackFor returns the last cycle sequence received from addr.
func (c *Collector) ackFor(addr string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked[addr]
}

// recordAck remembers the cycle just received from addr; the next poll
// request carries it so the agent can release the pending cycle.
func (c *Collector) recordAck(addr string, seq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.acked == nil {
		c.acked = make(map[string]uint64)
	}
	c.acked[addr] = seq
}

// Poll requests the next cycle from one agent, acknowledging the
// previous one. Safe to retry: a lost response is retransmitted by the
// agent under the same cycle sequence.
func (c *Collector) Poll(addr string) (*Report, error) {
	payload, err := c.roundTrip(addr, TypePoll, TypeReport, encodeAck(c.ackFor(addr)))
	if err != nil {
		return nil, err
	}
	rep, err := decodeReport(payload)
	if err != nil {
		return nil, err
	}
	c.recordAck(addr, rep.Cycle)
	return rep, nil
}

// PollSnapshot requests the agent's latest pipeline window snapshot.
// Agents without a snapshot source, or whose pipeline has not completed
// a window yet, answer with a wire error that surfaces here.
func (c *Collector) PollSnapshot(addr string) (*Snapshot, error) {
	payload, err := c.roundTrip(addr, TypeSnapshotQuery, TypeSnapshot, nil)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(payload)
}

// retryable classifies one failed exchange. Transport faults and
// corrupt frames are worth retrying — under the ack protocol every
// request type is idempotent. A typed agent response or a protocol
// version mismatch is deterministic: the same request would fail the
// same way.
func retryable(err error) bool {
	return !errors.Is(err, ErrAgent) && !errors.Is(err, ErrVersion)
}

// roundTrip performs one request/response exchange with bounded
// retries, returning the payload of the expected response type.
func (c *Collector) roundTrip(addr string, msgType, wantType uint8, reqPayload []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if attempt > 0 {
			c.pause(c.retryDelay(attempt))
		}
		payload, err := c.exchange(addr, msgType, wantType, reqPayload)
		if err == nil {
			return payload, nil
		}
		if !retryable(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("collect: %s unreachable after %d attempts: %w", addr, c.Retries+1, lastErr)
}

// exchange is a single attempt: dial, send, receive. TypeError
// responses become ErrAgent errors.
func (c *Collector) exchange(addr string, msgType, wantType uint8, reqPayload []byte) ([]byte, error) {
	d := net.Dialer{Timeout: c.Timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collect: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if c.Timeout > 0 {
		_ = conn.SetDeadline(c.now().Add(c.Timeout))
	}
	if err := writeFrame(conn, msgType, reqPayload); err != nil {
		return nil, fmt.Errorf("collect: send to %s: %w", addr, err)
	}
	respType, payload, err := readFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("collect: response from %s: %w", addr, err)
	}
	switch respType {
	case wantType:
		return payload, nil
	case TypeError:
		return nil, fmt.Errorf("%w: agent %s: %s", ErrAgent, addr, payload)
	default:
		return nil, fmt.Errorf("%w: unexpected response type %d", ErrWire, respType)
	}
}

// PollAll polls every address and returns one result per address, in
// the input order. At most MaxConcurrent agents are polled at once: a
// fixed worker pool consumes the address list, so the goroutine count
// is bounded by the cap, not the backbone size.
func (c *Collector) PollAll(addrs []string) []PollResult {
	out := make([]PollResult, len(addrs))
	limit := c.MaxConcurrent
	if limit <= 0 {
		limit = DefaultMaxConcurrent
	}
	limit = min(limit, len(addrs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < limit; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				rep, err := c.Poll(addrs[i])
				out[i] = PollResult{Addr: addrs[i], Report: rep, Err: err}
			}
		}()
	}
	for i := range addrs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// BackboneView is the NOC's merged picture of one poll cycle.
type BackboneView struct {
	Matrix    *arts.SrcDstMatrix
	Ports     *arts.PortDistribution
	Protocols *arts.ProtocolDistribution
	Nodes     []string
	Failed    []PollResult
}

// ErrNoReports reports an Aggregate call where not a single report
// merged. The returned view still carries the per-node failures.
var ErrNoReports = errors.New("collect: no report merged")

// ErrDuplicateCycle marks a report whose (node, cycle) pair was already
// merged in the same Aggregate call: a retransmitted cycle must be
// counted exactly once, so the duplicate is demoted to a failure.
var ErrDuplicateCycle = errors.New("collect: duplicate cycle report")

// Aggregate merges successful poll results into a backbone-wide view.
// Failures — unreachable nodes, malformed reports, duplicated cycles —
// are collected in Failed so one bad node does not void the cycle; a
// node merges all of its objects or none of them. The error is
// ErrNoReports only when nothing merged at all.
func Aggregate(results []PollResult) (*BackboneView, error) {
	v := &BackboneView{
		Matrix:    arts.NewSrcDstMatrix(),
		Ports:     arts.NewPortDistribution(),
		Protocols: arts.NewProtocolDistribution(),
	}
	type cycleKey struct {
		node  string
		cycle uint64
	}
	seen := make(map[cycleKey]bool)
	for _, res := range results {
		if res.Err != nil {
			v.Failed = append(v.Failed, res)
			continue
		}
		if res.Report.Cycle != 0 {
			key := cycleKey{res.Report.Node, res.Report.Cycle}
			if seen[key] {
				v.Failed = append(v.Failed, PollResult{Addr: res.Addr, Report: res.Report,
					Err: fmt.Errorf("%w: node %s cycle %d", ErrDuplicateCycle, res.Report.Node, res.Report.Cycle)})
				continue
			}
			seen[key] = true
		}
		m, p, pr, err := decodeObjects(res.Report)
		if err != nil {
			v.Failed = append(v.Failed, PollResult{Addr: res.Addr, Report: res.Report, Err: err})
			continue
		}
		v.Matrix.Merge(m)
		v.Ports.Merge(p)
		v.Protocols.Merge(pr)
		v.Nodes = append(v.Nodes, res.Report.Node)
	}
	if len(results) > 0 && len(v.Nodes) == 0 {
		return v, fmt.Errorf("%w: all %d results failed", ErrNoReports, len(results))
	}
	return v, nil
}

// decodeObjects decodes all three merged objects of a report up front,
// so a node whose report is partially corrupt contributes nothing
// rather than a torn subset.
func decodeObjects(r *Report) (*arts.SrcDstMatrix, *arts.PortDistribution, *arts.ProtocolDistribution, error) {
	m, err := r.Matrix()
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := r.Ports()
	if err != nil {
		return nil, nil, nil, err
	}
	pr, err := r.Protocols()
	if err != nil {
		return nil, nil, nil, err
	}
	return m, p, pr, nil
}

// TotalPackets sums the merged protocol distribution, the backbone-wide
// packet total of the cycle.
func (v *BackboneView) TotalPackets() uint64 {
	var t uint64
	for _, c := range v.Protocols.Protos {
		t += c.Packets
	}
	return t
}
