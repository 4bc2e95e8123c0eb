package collect

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"netsample/internal/arts"
)

// Accept-loop retry bounds: transient listener errors are retried with
// exponential backoff, up to DefaultAcceptRetries consecutive failures
// (timeouts do not count), before the agent declares the listener dead
// and records the failure in Err.
const (
	DefaultAcceptRetries = 8
	acceptBackoffBase    = time.Millisecond
	acceptBackoffMax     = 250 * time.Millisecond
)

// Agent is the node-side collection server: it answers NOC snapshot
// queries over TCP with the node's latest window (Snapshots). A query
// reads and never cuts, so any number of collectors may poll it and a
// retried query is harmless (DESIGN.md §11).
type Agent struct {
	Node string

	// Snapshots answers TypeSnapshotQuery requests with the node's live
	// pipeline view (e.g. a *pipeline.Exporter). Nil makes snapshot
	// queries return a wire error.
	Snapshots SnapshotSource

	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}

	errMu   sync.Mutex
	loopErr error

	// IOTimeout bounds each read/write on an agent connection.
	IOTimeout time.Duration

	// Clock supplies the current time for I/O deadlines. Nil means the
	// real time; tests inject a fake to pin deadline arithmetic.
	Clock func() time.Time

	// Sleep is the seam the accept-retry backoff pauses through. Nil
	// means time.Sleep; tests inject a no-op.
	Sleep func(time.Duration)
}

// now reads the agent's clock. This is the package's sanctioned
// wall-clock seam; everything else must go through it.
func (a *Agent) now() time.Time {
	if a.Clock != nil {
		return a.Clock()
	}
	return time.Now() //nslint:allow noclock default of the injectable Clock seam
}

// pause sleeps for d through the injectable seam.
func (a *Agent) pause(d time.Duration) {
	if d <= 0 {
		return
	}
	if a.Sleep != nil {
		a.Sleep(d)
		return
	}
	time.Sleep(d)
}

// NewAgent creates an agent for the named node. The backbone argument
// is ignored: it named the object profile of the retired report plane,
// and stays only so existing callers compile.
func NewAgent(node string, _ arts.Backbone) *Agent {
	return &Agent{
		Node:      node,
		closed:    make(chan struct{}),
		IOTimeout: 10 * time.Second,
	}
}

// Serve starts listening on addr ("127.0.0.1:0" for an ephemeral test
// port) and returns the bound address. Connections are handled until
// Close.
func (a *Agent) Serve(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return a.ServeListener(ln), nil
}

// ServeListener serves connections from an existing listener and
// returns its address. The chaos harness uses it to put a
// fault-injecting listener under the agent.
func (a *Agent) ServeListener(ln net.Listener) net.Addr {
	a.ln = ln
	a.wg.Add(1)
	go a.acceptLoop()
	return ln.Addr()
}

// setErr records the accept loop's terminal failure.
func (a *Agent) setErr(err error) {
	a.errMu.Lock()
	a.loopErr = err
	a.errMu.Unlock()
}

// Err reports why the accept loop stopped: nil while serving and after
// a clean Close, or the error that killed the listener when the agent
// exhausted its retries — the observable difference between "shut
// down" and "crashed".
func (a *Agent) Err() error {
	a.errMu.Lock()
	defer a.errMu.Unlock()
	return a.loopErr
}

// acceptLoop accepts connections until Close. Transient accept errors
// are retried with exponential backoff instead of silently killing the
// agent; persistent failure (or a listener closed underneath a live
// agent) is recorded in Err before the loop exits.
func (a *Agent) acceptLoop() {
	defer a.wg.Done()
	backoff := acceptBackoffBase
	failures := 0
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			select {
			case <-a.closed:
				return // clean shutdown via Close
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			if errors.Is(err, net.ErrClosed) {
				a.setErr(fmt.Errorf("collect agent %s: listener closed outside Close: %w", a.Node, err))
				return
			}
			failures++
			if failures > DefaultAcceptRetries {
				a.setErr(fmt.Errorf("collect agent %s: accept failed %d times, giving up: %w", a.Node, failures, err))
				return
			}
			log.Printf("collect agent %s: accept (attempt %d, retrying in %v): %v", a.Node, failures, backoff, err)
			a.pause(backoff)
			backoff = min(2*backoff, acceptBackoffMax)
			continue
		}
		failures = 0
		backoff = acceptBackoffBase
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.handle(conn)
		}()
	}
}

// handle serves one NOC connection; a connection may carry many
// requests. A frame from another protocol version is answered with a
// typed error before the connection is dropped, so old peers fail loud
// instead of silent.
func (a *Agent) handle(conn net.Conn) {
	defer conn.Close()
	for {
		if a.IOTimeout > 0 {
			_ = conn.SetDeadline(a.now().Add(a.IOTimeout))
		}
		msgType, _, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, ErrVersion) {
				_ = writeFrame(conn, TypeError, []byte(err.Error()))
			}
			return // disconnect or garbage: drop the connection
		}
		respType, payload := a.answer(msgType)
		if a.IOTimeout > 0 {
			_ = conn.SetDeadline(a.now().Add(a.IOTimeout))
		}
		if err := writeFrame(conn, respType, payload); err != nil {
			return
		}
	}
}

// answer builds the response to one request. Only a snapshot query is
// served; any other type, the retired report types 1–3 included, gets a
// typed error and the connection stays open.
func (a *Agent) answer(msgType uint8) (respType uint8, payload []byte) {
	if msgType != TypeSnapshotQuery {
		return TypeError, fmt.Appendf(nil, "unsupported request type %d", msgType)
	}
	if a.Snapshots == nil {
		return TypeError, []byte("no snapshot source configured")
	}
	s, ok := a.Snapshots.LatestSnapshot()
	if !ok {
		return TypeError, []byte("no snapshot available yet")
	}
	payload, err := EncodeSnapshot(s)
	if err != nil {
		return TypeError, []byte(err.Error())
	}
	return TypeSnapshot, payload
}

// Close stops the listener and waits for in-flight connections.
func (a *Agent) Close() error {
	close(a.closed)
	var err error
	if a.ln != nil {
		err = a.ln.Close()
	}
	a.wg.Wait()
	return err
}
