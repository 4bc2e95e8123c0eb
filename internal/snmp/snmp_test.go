package snmp

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func startAgent(t *testing.T) (*Agent, string) {
	t.Helper()
	a := NewAgent()
	addr, err := a.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	return a, addr.String()
}

func TestGetSingleCounter(t *testing.T) {
	a, addr := startAgent(t)
	var pkts atomic.Uint64
	pkts.Store(12345)
	if err := a.Register("if.1.inPkts", pkts.Load); err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	vals, err := m.Get(addr, "if.1.inPkts")
	if err != nil {
		t.Fatal(err)
	}
	if vals["if.1.inPkts"] != 12345 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestGetReadsLiveValues(t *testing.T) {
	a, addr := startAgent(t)
	var pkts atomic.Uint64
	if err := a.Register("c", pkts.Load); err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	v1, err := m.Get(addr, "c")
	if err != nil {
		t.Fatal(err)
	}
	pkts.Add(100)
	v2, err := m.Get(addr, "c")
	if err != nil {
		t.Fatal(err)
	}
	if v2["c"]-v1["c"] != 100 {
		t.Fatalf("values not live: %v then %v", v1, v2)
	}
}

func TestGetMultipleCounters(t *testing.T) {
	a, addr := startAgent(t)
	for name, v := range map[string]uint64{"a": 1, "b": 2, "c": 3} {
		v := v
		if err := a.Register(name, func() uint64 { return v }); err != nil {
			t.Fatal(err)
		}
	}
	m := NewManager()
	vals, err := m.Get(addr, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals["a"] != 1 || vals["b"] != 2 || vals["c"] != 3 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestGetUnknownObject(t *testing.T) {
	a, addr := startAgent(t)
	if err := a.Register("known", func() uint64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	if _, err := m.Get(addr, "unknown"); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("unknown object: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	a := NewAgent()
	if err := a.Register("", func() uint64 { return 0 }); err == nil {
		t.Error("empty name accepted")
	}
	if err := a.Register("x", nil); err == nil {
		t.Error("nil getter accepted")
	}
}

func TestGetValidation(t *testing.T) {
	m := NewManager()
	if _, err := m.Get("127.0.0.1:1"); err == nil {
		t.Error("no names accepted")
	}
	if _, err := m.Get("127.0.0.1:1", ""); err == nil {
		t.Error("empty name accepted")
	}
}

func TestRetrySurvivesDatagramLoss(t *testing.T) {
	a := NewAgent()
	a.DropEvery = 2 // drop every second request; set before Serve
	laddr, err := a.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	addr := laddr.String()
	if err := a.Register("c", func() uint64 { return 7 }); err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	m.Timeout = 150 * time.Millisecond
	m.Retries = 3
	// Several gets in a row; each survives a 50% request loss via retry.
	for i := 0; i < 6; i++ {
		vals, err := m.Get(addr, "c")
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if vals["c"] != 7 {
			t.Fatalf("get %d: %v", i, vals)
		}
	}
}

func TestTimeoutOnDeadAgent(t *testing.T) {
	// Reserve a port with no agent behind it.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := conn.LocalAddr().String()
	conn.Close()
	m := NewManager()
	m.Timeout = 100 * time.Millisecond
	m.Retries = 1
	start := time.Now()
	if _, err := m.Get(addr, "c"); err == nil {
		t.Fatal("dead agent answered")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took too long")
	}
}

func TestAgentIgnoresGarbage(t *testing.T) {
	a, addr := startAgent(t)
	if err := a.Register("c", func() uint64 { return 9 }); err != nil {
		t.Fatal(err)
	}
	// Throw garbage at the agent first.
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{
		{}, {1}, []byte("GET /"), make([]byte, 4096),
	} {
		_, _ = conn.Write(payload)
	}
	conn.Close()
	// The agent must still answer well-formed requests.
	m := NewManager()
	vals, err := m.Get(addr, "c")
	if err != nil {
		t.Fatal(err)
	}
	if vals["c"] != 9 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestConcurrentManagers(t *testing.T) {
	a, addr := startAgent(t)
	var counter atomic.Uint64
	if err := a.Register("c", counter.Load); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := NewManager()
			for j := 0; j < 20; j++ {
				if _, err := m.Get(addr, "c"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestParseNamesErrors(t *testing.T) {
	cases := [][]byte{
		{},                // missing count
		{0},               // zero count
		{100},             // count with no names
		{1, 0},            // zero-length name
		{1, 5, 'a'},       // truncated name
		{1, 1, 'a', 0xff}, // trailing bytes
	}
	for i, c := range cases {
		if _, err := parseNames(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestParseResponseErrors(t *testing.T) {
	if _, _, err := parseResponse([]byte{1, 2, 3}, 1); err == nil {
		t.Error("short response accepted")
	}
	// Mismatched request ID is not an error, just no match.
	resp := respHeader(99, typeValues)
	resp = append(resp, 0)
	if _, match, err := parseResponse(resp, 1); err != nil || match {
		t.Errorf("stray response: match=%v err=%v", match, err)
	}
	// Unknown type.
	bad := respHeader(1, 42)
	if _, _, err := parseResponse(bad, 1); err == nil {
		t.Error("unknown type accepted")
	}
}
