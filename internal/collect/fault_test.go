package collect

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"netsample/internal/arts"
	"netsample/internal/faultnet"
)

// TestRetryableClassification: transport faults retry; a typed agent
// answer or a version mismatch is final.
func TestRetryableClassification(t *testing.T) {
	if retryable(fmt.Errorf("wrap: %w", ErrAgent)) {
		t.Fatal("ErrAgent classified retryable")
	}
	if retryable(fmt.Errorf("wrap: %w", ErrVersion)) {
		t.Fatal("ErrVersion classified retryable")
	}
	if !retryable(io.ErrUnexpectedEOF) {
		t.Fatal("transport fault classified final")
	}
}

// TestAgentAcceptRetriesTransientErrors: transient Accept failures must
// not kill the agent — it backs off, retries, and keeps serving.
func TestAgentAcceptRetriesTransientErrors(t *testing.T) {
	agent := NewAgent("ENSS", arts.T1)
	agent.Sleep = func(time.Duration) {}
	agent.Snapshots = &fakeSnapshotSource{snap: &Snapshot{Node: "ENSS", Seq: 1}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultnet.NewInjector(1, faultnet.Config{})
	fln := inj.Listener(ln)
	fln.FailAccepts(errors.New("flaky 1"), errors.New("flaky 2"), errors.New("flaky 3"))
	addr := agent.ServeListener(fln)
	defer agent.Close()

	col := NewCollector()
	snap, err := col.PollSnapshot(addr.String())
	if err != nil {
		t.Fatalf("PollSnapshot after transient accept errors: %v", err)
	}
	if snap.Node != "ENSS" {
		t.Fatalf("node %q", snap.Node)
	}
	if err := agent.Err(); err != nil {
		t.Fatalf("Err() = %v after recovered transients, want nil", err)
	}
}

// waitAgentErr polls Err() until it is non-nil or the deadline passes.
func waitAgentErr(t *testing.T, a *Agent) error {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if err := a.Err(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("agent accept loop never recorded an error")
	return nil
}

// TestAgentAcceptGivesUpAfterRetries: persistent Accept failure is
// bounded — the loop exits and the cause is observable via Err, the
// difference between "shut down" and "crashed".
func TestAgentAcceptGivesUpAfterRetries(t *testing.T) {
	agent := NewAgent("ENSS", arts.T1)
	agent.Sleep = func(time.Duration) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultnet.NewInjector(1, faultnet.Config{})
	fln := inj.Listener(ln)
	boom := errors.New("persistent failure")
	fails := make([]error, DefaultAcceptRetries+1)
	for i := range fails {
		fails[i] = boom
	}
	fln.FailAccepts(fails...)
	agent.ServeListener(fln)

	loopErr := waitAgentErr(t, agent)
	if !errors.Is(loopErr, boom) || !strings.Contains(loopErr.Error(), "giving up") {
		t.Fatalf("Err() = %v, want the give-up error wrapping the cause", loopErr)
	}
	_ = agent.Close()
}

// TestAgentListenerClosedUnderneath: a listener closed outside Close is
// a crash, not a shutdown, and Err says so.
func TestAgentListenerClosedUnderneath(t *testing.T) {
	agent := NewAgent("ENSS", arts.T1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	agent.ServeListener(ln)
	_ = ln.Close()
	loopErr := waitAgentErr(t, agent)
	if !strings.Contains(loopErr.Error(), "outside Close") {
		t.Fatalf("Err() = %v, want the closed-underneath diagnosis", loopErr)
	}
	_ = agent.Close()
}

// TestAgentCleanCloseNoError: Close is a shutdown, not a crash.
func TestAgentCleanCloseNoError(t *testing.T) {
	agent := NewAgent("ENSS", arts.T1)
	if _, err := agent.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	if err := agent.Err(); err != nil {
		t.Fatalf("Err() = %v after clean Close, want nil", err)
	}
}

// TestOldVersionFrameAnsweredWithTypedError: a v1 peer gets a typed
// error response naming the version mismatch instead of a silent drop
// or a stalled connection.
func TestOldVersionFrameAnsweredWithTypedError(t *testing.T) {
	agent := NewAgent("ENSS", arts.T1)
	addr, err := agent.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A v1 frame: 8-byte header, version byte 1, no checksum.
	v1 := []byte{0x53, 0x4e, 1, TypeSnapshotQuery, 0, 0, 0, 0}
	if _, err := conn.Write(v1); err != nil {
		t.Fatal(err)
	}
	respType, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("reading version-error response: %v", err)
	}
	if respType != TypeError {
		t.Fatalf("response type %d, want TypeError", respType)
	}
	if !strings.Contains(string(payload), "version") {
		t.Fatalf("error payload %q does not name the version mismatch", payload)
	}

	// Collector-side: the typed answer is final, not retried.
	// (A v1 *collector* polling a v2 agent sees the same typed error.)
}
