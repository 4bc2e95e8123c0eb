// Package faultnet wraps net.Conn and net.Listener with deterministic,
// seed-driven fault injection, the harness behind the collection
// plane's chaos tests. Real deployments lose statistics to the export
// path, not to sampling ("Revisiting the Issues On Netflow Sample and
// Export Performance"): links drop responses mid-frame, reset under
// load, and corrupt headers. faultnet reproduces those failures on
// loopback sockets, and — because every draw flows through one seeded
// dist.RNG and every pause through an injectable Sleep seam — a fault
// schedule is a pure function of (seed, wrap order), so any chaos run
// replays exactly.
//
// Every fault is engineered to fail fast rather than stall: a faulted
// connection always ends in a closed transport, so the peer observes
// EOF or a reset promptly and soak tests never wait out real timeouts.
//
//nslint:allow unreached fault-injection harness: only FuzzOracleChain's collection hop and the collect fault tests drive it, by design
package faultnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"netsample/internal/dist"
)

// Kind enumerates the fault applied to one wrapped connection.
type Kind uint8

const (
	// None passes traffic through untouched.
	None Kind = iota
	// Drop silently discards all bytes in the faulted direction after
	// Offset bytes have passed, then closes the transport: the sender
	// believes its write succeeded while the receiver sees a truncated
	// stream — the lost-response failure mode a retried poll must
	// survive.
	Drop
	// Reset hard-closes the transport once Offset bytes have passed;
	// the operation in flight fails, modeling a mid-frame RST.
	Reset
	// Partial forwards only the prefix of the write that crosses
	// Offset, closes the transport, and reports a short write: unlike
	// Drop, the sender knows this frame failed.
	Partial
	// Corrupt flips one bit of the byte at stream position Offset in
	// the faulted direction and forwards everything else untouched.
	Corrupt
	// DelayOp pauses (through the injector's Sleep seam) before every
	// operation in the faulted direction.
	DelayOp

	numKinds = 6
)

// String names the fault kind for test failure messages.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Reset:
		return "reset"
	case Partial:
		return "partial"
	case Corrupt:
		return "corrupt"
	case DelayOp:
		return "delay"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrReset is the error a Reset fault returns for the operation that
// trips it.
var ErrReset = errors.New("faultnet: connection reset by fault schedule")

// Fault is one connection's deterministic fault schedule.
type Fault struct {
	Kind    Kind
	OnWrite bool          // faulted direction: write path or read path
	Offset  int           // byte offset at which Drop/Reset/Partial trip, or the corrupted byte
	Bit     uint8         // bit flipped by Corrupt
	Delay   time.Duration // pause per operation for DelayOp
}

// Config bounds the faults an Injector draws.
type Config struct {
	// FaultProb is the probability in [0, 1] that a wrapped connection
	// draws a fault at all.
	FaultProb float64

	// Budget caps how many connections fault in total; once spent,
	// every further connection is clean. Zero or negative means
	// unlimited. A budget below a collector's retry count guarantees
	// eventual success, which lets a chaos soak assert conservation
	// rather than mere availability.
	Budget int

	// MaxOffset bounds the drawn byte offsets for Drop/Reset/Partial
	// (default 64).
	MaxOffset int

	// CorruptWindow bounds where Corrupt may flip a bit (default 4, the
	// magic/version/type prefix of a collect frame). Corrupting a
	// length field would stall the peer waiting for bytes that never
	// arrive rather than corrupt data — that failure mode belongs to
	// Drop, and the frame checksum covers the rest.
	CorruptWindow int

	// MaxDelay bounds drawn DelayOp pauses (default 1 ms).
	MaxDelay time.Duration
}

// Injector hands out deterministically faulted connections. All
// randomness flows through one seeded dist.RNG guarded by a mutex.
type Injector struct {
	// Sleep is the seam DelayOp pauses go through; nil means
	// time.Sleep. Tests inject a no-op so soaks run at full speed.
	Sleep func(time.Duration)

	mu      sync.Mutex
	rng     *dist.RNG
	cfg     Config
	faulted int
	wrapped int
}

// NewInjector returns an injector whose fault schedules are fully
// determined by seed and the order connections are wrapped in.
func NewInjector(seed uint64, cfg Config) *Injector {
	if cfg.MaxOffset <= 0 {
		cfg.MaxOffset = 64
	}
	if cfg.CorruptWindow <= 0 {
		cfg.CorruptWindow = 4
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Millisecond
	}
	return &Injector{rng: dist.NewRNG(seed), cfg: cfg}
}

// Faulted reports how many wrapped connections drew a fault.
func (in *Injector) Faulted() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faulted
}

// Wrapped reports how many connections have been wrapped in total.
func (in *Injector) Wrapped() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.wrapped
}

// Next draws the fault schedule for the next wrapped connection. It is
// exported so tests can replay a schedule without opening sockets.
func (in *Injector) Next() Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.wrapped++
	if in.cfg.FaultProb <= 0 || (in.cfg.Budget > 0 && in.faulted >= in.cfg.Budget) {
		return Fault{}
	}
	if in.rng.Float64() >= in.cfg.FaultProb {
		return Fault{}
	}
	in.faulted++
	f := Fault{
		Kind:    Kind(1 + in.rng.IntN(numKinds-1)),
		OnWrite: in.rng.Float64() < 0.5,
		Offset:  in.rng.IntN(in.cfg.MaxOffset),
		Bit:     uint8(in.rng.IntN(8)),
		Delay:   time.Duration(1 + in.rng.Int64N(int64(in.cfg.MaxDelay))),
	}
	if f.Kind == Corrupt {
		f.Offset = in.rng.IntN(in.cfg.CorruptWindow)
	}
	if f.Kind == Partial {
		f.OnWrite = true // a partial write only exists on the write path
	}
	return f
}

// Wrap returns c with the next drawn fault schedule applied.
func (in *Injector) Wrap(c net.Conn) net.Conn {
	return in.WrapFault(c, in.Next())
}

// WrapFault applies an explicit fault schedule, for tests that need one
// specific failure rather than a drawn one.
func (in *Injector) WrapFault(c net.Conn, f Fault) net.Conn {
	if f.Kind == None {
		return c
	}
	return &conn{Conn: c, fault: f, sleep: in.sleep}
}

// sleep pauses through the injectable seam.
func (in *Injector) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if in.Sleep != nil {
		in.Sleep(d)
		return
	}
	time.Sleep(d)
}

// conn applies one Fault to an underlying net.Conn. The fault state is
// mutex-guarded so a server reading and writing from different
// goroutines stays race-free.
type conn struct {
	net.Conn
	fault Fault
	sleep func(time.Duration)

	mu      sync.Mutex
	rpos    int
	wpos    int
	tripped bool // Drop, Reset or Partial fired and closed the transport
}

func (c *conn) Write(p []byte) (int, error) {
	f := c.fault
	if !f.OnWrite {
		return c.Conn.Write(p)
	}
	switch f.Kind {
	case DelayOp:
		c.sleep(f.Delay)
		return c.Conn.Write(p)
	case Corrupt:
		return c.writeCorrupt(p)
	case Drop, Partial, Reset:
		return c.writeCut(p)
	}
	return c.Conn.Write(p)
}

func (c *conn) Read(p []byte) (int, error) {
	f := c.fault
	if f.OnWrite {
		return c.Conn.Read(p)
	}
	switch f.Kind {
	case DelayOp:
		c.sleep(f.Delay)
		return c.Conn.Read(p)
	case Corrupt:
		return c.readCorrupt(p)
	case Drop, Reset:
		return c.readCut(p)
	}
	return c.Conn.Read(p)
}

// writeCut forwards bytes until the fault offset, then closes the
// transport; cutWrite says what the write that crosses the offset, and
// every write after it, returns.
func (c *conn) writeCut(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tripped {
		return c.cutWrite(p, 0, false)
	}
	keep := c.fault.Offset - c.wpos
	c.wpos += len(p)
	if keep >= len(p) {
		return c.Conn.Write(p) //nslint:allow mutexhold harness conn serves one sequential exchange; fault accounting must stay ordered with its I/O
	}
	c.tripped = true
	n := 0
	if keep > 0 {
		var err error
		if n, err = c.Conn.Write(p[:keep]); err != nil { //nslint:allow mutexhold harness conn serves one sequential exchange; fault accounting must stay ordered with its I/O
			return n, err
		}
	}
	_ = c.Conn.Close() //nslint:allow mutexhold harness conn serves one sequential exchange; fault accounting must stay ordered with its I/O
	return c.cutWrite(p, n, true)
}

// cutWrite is what a tripped write fault returns, n being the prefix
// the tripping write forwarded. Drop claims success while the rest is
// lost, so the writer sees nothing wrong and the peer a truncated
// stream and then EOF. Partial reports a short write, and a closed
// transport after. Reset fails the write in flight and every one after.
func (c *conn) cutWrite(p []byte, n int, tripping bool) (int, error) {
	switch {
	case c.fault.Kind == Drop:
		return len(p), nil
	case c.fault.Kind == Partial && tripping:
		return n, io.ErrShortWrite
	case c.fault.Kind == Partial:
		return 0, net.ErrClosed
	}
	return n, ErrReset
}

// writeCorrupt forwards the write, flipping the scheduled bit if its
// byte falls inside this operation. The caller's buffer is never
// mutated.
func (c *conn) writeCorrupt(p []byte) (int, error) {
	c.mu.Lock()
	start := c.wpos
	c.wpos += len(p)
	c.mu.Unlock()
	t := c.fault.Offset
	if t < start || t >= start+len(p) {
		return c.Conn.Write(p)
	}
	q := make([]byte, len(p))
	copy(q, p)
	q[t-start] ^= 1 << c.fault.Bit
	return c.Conn.Write(q)
}

// readCut serves bytes until the fault offset, then closes the
// transport and fails the read in flight and every one after: with
// io.EOF for Drop (the remaining inbound data was lost before the
// application saw it), with ErrReset for Reset.
func (c *conn) readCut(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cut := ErrReset
	if c.fault.Kind == Drop {
		cut = io.EOF
	}
	if c.tripped {
		return 0, cut
	}
	allow := c.fault.Offset - c.rpos
	if allow <= 0 {
		c.tripped = true
		_ = c.Conn.Close() //nslint:allow mutexhold harness conn serves one sequential exchange; fault accounting must stay ordered with its I/O
		return 0, cut
	}
	if allow < len(p) {
		p = p[:allow]
	}
	n, err := c.Conn.Read(p) //nslint:allow mutexhold harness conn serves one sequential exchange; fault accounting must stay ordered with its I/O
	c.rpos += n
	return n, err
}

// readCorrupt forwards the read, flipping the scheduled bit if its byte
// falls inside this operation.
func (c *conn) readCorrupt(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		start := c.rpos
		c.rpos += n
		c.mu.Unlock()
		t := c.fault.Offset
		if t >= start && t < start+n {
			p[t-start] ^= 1 << c.fault.Bit
		}
	}
	return n, err
}

// Listener wraps a net.Listener: accepted connections carry the
// injector's drawn fault schedules, and Accept itself can be scripted
// to fail, which is how an agent's accept-retry path is exercised.
type Listener struct {
	net.Listener
	inj *Injector

	mu     sync.Mutex
	errs   []error
	faults []Fault
}

// Listener wraps ln with this injector's fault schedules.
func (in *Injector) Listener(ln net.Listener) *Listener {
	return &Listener{Listener: ln, inj: in}
}

// FailAccepts queues errors that the next Accept calls return, in
// order, before any connection is accepted.
func (l *Listener) FailAccepts(errs ...error) {
	l.mu.Lock()
	l.errs = append(l.errs, errs...)
	l.mu.Unlock()
}

// ScriptFaults queues explicit fault schedules applied to the next
// accepted connections, ahead of the injector's drawn ones.
func (l *Listener) ScriptFaults(faults ...Fault) {
	l.mu.Lock()
	l.faults = append(l.faults, faults...)
	l.mu.Unlock()
}

// Accept returns the next scripted error, or the next connection
// wrapped in its fault schedule.
func (l *Listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		l.mu.Unlock()
		return nil, err
	}
	l.mu.Unlock()
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	if len(l.faults) > 0 {
		f := l.faults[0]
		l.faults = l.faults[1:]
		l.mu.Unlock()
		return l.inj.WrapFault(c, f), nil
	}
	l.mu.Unlock()
	return l.inj.Wrap(c), nil
}
