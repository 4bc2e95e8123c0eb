// Package snmp implements the simple interface-counter query protocol
// that provides the paper's ground truth: "the principal sources of
// information for the T3 NSFNET backbone come from programs using the
// Simple Network Management Protocol for simple interface statistics".
// SNMP counters are incremented in the mainstream of packet forwarding
// and are therefore exact even when the statistics categorization falls
// behind — the property that exposed Figure 1's discrepancy.
//
// The wire protocol is a deliberately simplified SNMP work-alike over
// UDP (no ASN.1): fixed little-endian framing, string object names in
// place of OIDs, GET of one or more counters per request, request-ID
// matching, and manager-side retry with timeout to survive UDP loss.
//
//	request:  magic uint16 "SG", version uint8 = 1, type uint8 = 1 (get),
//	          reqID uint32, count uint8, count × (uint8 len + name bytes)
//	response: same header with type 2 (values) or 3 (error),
//	          values: count uint8, count × (uint8 len + name, uint64 value)
//	          error:  uint8 len + message bytes
package snmp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Protocol constants.
const (
	magic       = 0x5347 // "SG"
	version     = 1
	typeGet     = 1
	typeValues  = 2
	typeError   = 3
	headerLen   = 8
	maxNameLen  = 255
	maxCounters = 64
	maxDatagram = 8192
)

// ErrProto reports a malformed datagram.
var ErrProto = errors.New("snmp: malformed datagram")

// ErrNoSuchObject reports a GET of an unregistered counter.
var ErrNoSuchObject = errors.New("snmp: no such object")

// Agent serves counter GETs over UDP. Counters are registered as getter
// functions so values are read at query time, like real SNMP
// instrumentation of live forwarding counters.
type Agent struct {
	mu       sync.RWMutex
	counters map[string]func() uint64

	conn   *net.UDPConn
	wg     sync.WaitGroup
	closed chan struct{}

	// DropEvery simulates UDP loss for tests: every n-th request is
	// silently discarded (0 disables). It must be set before Serve.
	DropEvery int
	reqCount  int
}

// NewAgent returns an agent with no counters registered.
func NewAgent() *Agent {
	return &Agent{counters: make(map[string]func() uint64), closed: make(chan struct{})}
}

// Register exposes a counter under the given name. Re-registering a
// name replaces its getter.
func (a *Agent) Register(name string, get func() uint64) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("%w: bad counter name", ErrProto)
	}
	if get == nil {
		return errors.New("snmp: nil getter")
	}
	a.mu.Lock()
	a.counters[name] = get
	a.mu.Unlock()
	return nil
}

// Serve binds the agent to a UDP address ("127.0.0.1:0" for tests) and
// answers requests until Close.
func (a *Agent) Serve(addr string) (net.Addr, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	a.conn = conn
	a.wg.Add(1)
	go a.serveLoop()
	return conn.LocalAddr(), nil
}

func (a *Agent) serveLoop() {
	defer a.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, peer, err := a.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-a.closed:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return
		}
		a.reqCount++
		if a.DropEvery > 0 && a.reqCount%a.DropEvery == 0 {
			continue // simulated datagram loss
		}
		resp := a.handle(buf[:n])
		if resp != nil {
			_, _ = a.conn.WriteToUDP(resp, peer)
		}
	}
}

// handle parses one request and builds the response. Malformed
// datagrams are dropped silently, as a real agent would.
func (a *Agent) handle(req []byte) []byte {
	if len(req) < headerLen {
		return nil
	}
	if binary.LittleEndian.Uint16(req[0:]) != magic || req[2] != version || req[3] != typeGet {
		return nil
	}
	reqID := binary.LittleEndian.Uint32(req[4:])
	names, err := parseNames(req[headerLen:])
	if err != nil {
		return errResponse(reqID, err.Error())
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := respHeader(reqID, typeValues)
	out = append(out, byte(len(names)))
	for _, name := range names {
		get, ok := a.counters[name]
		if !ok {
			return errResponse(reqID, fmt.Sprintf("no such object: %s", name))
		}
		out = append(out, byte(len(name)))
		out = append(out, name...)
		out = binary.LittleEndian.AppendUint64(out, get())
	}
	return out
}

func respHeader(reqID uint32, msgType byte) []byte {
	out := make([]byte, headerLen)
	binary.LittleEndian.PutUint16(out[0:], magic)
	out[2] = version
	out[3] = msgType
	binary.LittleEndian.PutUint32(out[4:], reqID)
	return out
}

func errResponse(reqID uint32, msg string) []byte {
	if len(msg) > maxNameLen {
		msg = msg[:maxNameLen]
	}
	out := respHeader(reqID, typeError)
	out = append(out, byte(len(msg)))
	return append(out, msg...)
}

// parseNames decodes the request's counter-name list.
func parseNames(b []byte) ([]string, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: missing count", ErrProto)
	}
	count := int(b[0])
	if count == 0 || count > maxCounters {
		return nil, fmt.Errorf("%w: bad counter count %d", ErrProto, count)
	}
	names := make([]string, 0, count)
	off := 1
	for i := 0; i < count; i++ {
		if off >= len(b) {
			return nil, fmt.Errorf("%w: truncated name list", ErrProto)
		}
		n := int(b[off])
		off++
		if n == 0 || off+n > len(b) {
			return nil, fmt.Errorf("%w: bad name length", ErrProto)
		}
		names = append(names, string(b[off:off+n]))
		off += n
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrProto)
	}
	return names, nil
}

// Close stops the agent.
func (a *Agent) Close() error {
	close(a.closed)
	var err error
	if a.conn != nil {
		err = a.conn.Close()
	}
	a.wg.Wait()
	return err
}

// Manager queries agents. It retries over UDP loss and matches
// responses to requests by ID, ignoring strays.
type Manager struct {
	// Timeout per attempt; Retries additional attempts after the first,
	// each sent as soon as the previous one times out.
	Timeout time.Duration
	Retries int

	// Clock is the injectable seam for attempt deadlines; nil means real
	// time.
	Clock func() time.Time

	mu    sync.Mutex
	reqID uint32
}

// NewManager returns a manager with sensible defaults for loopback use.
func NewManager() *Manager {
	return &Manager{Timeout: 500 * time.Millisecond, Retries: 3}
}

// now reads the manager's clock, the package's sanctioned wall-clock
// seam.
func (m *Manager) now() time.Time {
	if m.Clock != nil {
		return m.Clock()
	}
	return time.Now() //nslint:allow noclock default of the injectable Clock seam
}

// Get fetches the named counters from the agent at addr. The result maps
// each requested name to its value.
func (m *Manager) Get(addr string, names ...string) (map[string]uint64, error) {
	if len(names) == 0 || len(names) > maxCounters {
		return nil, fmt.Errorf("%w: bad counter count %d", ErrProto, len(names))
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	m.mu.Lock()
	m.reqID++
	reqID := m.reqID
	m.mu.Unlock()

	req := respHeader(reqID, typeGet)
	req[3] = typeGet
	req = append(req, byte(len(names)))
	for _, name := range names {
		if name == "" || len(name) > maxNameLen {
			return nil, fmt.Errorf("%w: bad counter name %q", ErrProto, name)
		}
		req = append(req, byte(len(name)))
		req = append(req, name...)
	}

	buf := make([]byte, maxDatagram)
	var lastErr error
	for attempt := 0; attempt <= m.Retries; attempt++ {
		if _, err := conn.Write(req); err != nil {
			return nil, err
		}
		deadline := m.now().Add(m.Timeout)
		for {
			if err := conn.SetReadDeadline(deadline); err != nil {
				return nil, err
			}
			n, err := conn.Read(buf)
			if err != nil {
				lastErr = err
				break // timeout: retry
			}
			vals, match, err := parseResponse(buf[:n], reqID)
			if err != nil {
				return nil, err
			}
			if !match {
				continue // stray or stale response: keep listening
			}
			return vals, nil
		}
	}
	return nil, fmt.Errorf("snmp: %s unreachable after %d attempts: %w",
		addr, m.Retries+1, lastErr)
}

// parseResponse decodes a response datagram. match is false when the
// response belongs to another request.
func parseResponse(b []byte, wantID uint32) (map[string]uint64, bool, error) {
	if len(b) < headerLen {
		return nil, false, fmt.Errorf("%w: short response", ErrProto)
	}
	if binary.LittleEndian.Uint16(b[0:]) != magic || b[2] != version {
		return nil, false, fmt.Errorf("%w: bad response header", ErrProto)
	}
	if binary.LittleEndian.Uint32(b[4:]) != wantID {
		return nil, false, nil
	}
	switch b[3] {
	case typeError:
		body := b[headerLen:]
		if len(body) < 1 || 1+int(body[0]) > len(body) {
			return nil, false, fmt.Errorf("%w: bad error body", ErrProto)
		}
		msg := string(body[1 : 1+int(body[0])])
		if len(msg) >= len("no such object") && msg[:len("no such object")] == "no such object" {
			return nil, false, fmt.Errorf("%w: %s", ErrNoSuchObject, msg)
		}
		return nil, false, fmt.Errorf("snmp: agent error: %s", msg)
	case typeValues:
		body := b[headerLen:]
		if len(body) < 1 {
			return nil, false, fmt.Errorf("%w: missing value count", ErrProto)
		}
		count := int(body[0])
		off := 1
		vals := make(map[string]uint64, count)
		for i := 0; i < count; i++ {
			if off >= len(body) {
				return nil, false, fmt.Errorf("%w: truncated values", ErrProto)
			}
			n := int(body[off])
			off++
			if n == 0 || off+n+8 > len(body) {
				return nil, false, fmt.Errorf("%w: bad value entry", ErrProto)
			}
			name := string(body[off : off+n])
			off += n
			vals[name] = binary.LittleEndian.Uint64(body[off:])
			off += 8
		}
		if off != len(body) {
			return nil, false, fmt.Errorf("%w: trailing bytes", ErrProto)
		}
		return vals, true, nil
	default:
		return nil, false, fmt.Errorf("%w: unknown response type %d", ErrProto, b[3])
	}
}
