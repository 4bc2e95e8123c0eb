package netsample

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"netsample/internal/collect"
	"netsample/internal/online"
	"netsample/internal/pipeline"
	"netsample/internal/store"
)

// TestNSDStoreReplayMatchesLive is the durable-store acceptance pin:
// run nsd with -store over a windowed trace, reopen the store cold, and
// require the replayed snapshot records to be bit-identical to the wire
// payloads an in-process pipeline run of the same configuration exports
// live, and nocquery's streamed answers over a store of 1 s windows to
// match a golden byte for byte. Then flip one byte in a sealed segment
// and require Verify to name the damaged segment and offset.
func TestNSDStoreReplayMatchesLive(t *testing.T) {
	dir := buildTools(t, "nstrace", "nsd", "nocquery")
	trPath := filepath.Join(t.TempDir(), "t.nstr")
	run(t, filepath.Join(dir, "nstrace"), "gen",
		"-out", trPath, "-seconds", "30", "-pps", "600", "-seed", "42", "-q")

	// In-process reference: the same pipeline configuration nsd builds
	// from these flags, capturing each window's exact export payload.
	tr := readTrace(t, trPath)
	cfg := pipeline.Config{
		Shards:        1,
		WindowUS:      (5 * time.Second).Microseconds(),
		FlowTimeoutUS: (15 * time.Second).Microseconds(),
		NewSampler: func(int) (online.Sampler, error) {
			return online.NewSystematic(50, 0)
		},
	}
	var want [][]byte
	cfg.OnSnapshot = func(s *pipeline.Snapshot) {
		payload, err := collect.EncodeSnapshot(s.Wire("store-node"))
		if err != nil {
			t.Errorf("encode reference snapshot: %v", err)
			return
		}
		want = append(want, payload)
	}
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatalf("pipeline.New: %v", err)
	}
	if err := p.Run(tr.Replay()); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(want) < 3 {
		t.Fatalf("reference run produced %d windows, want several", len(want))
	}

	// Daemon run with persistence: small segments so the store seals
	// several chain links, tight sync so every snapshot groups quickly.
	storeDir := filepath.Join(t.TempDir(), "snapstore")
	run(t, filepath.Join(dir, "nsd"),
		"-in", trPath, "-method", "systematic", "-k", "50", "-shards", "1",
		"-window", "5s", "-name", "store-node", "-once", "-q",
		"-store", storeDir, "-store-segment", "2", "-store-sync", "2")

	// Cold replay must be bit-identical to the live export payloads.
	r, err := store.OpenReader(storeDir)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	var got [][]byte
	err = r.Replay(func(rec store.Record) error {
		if rec.Kind != store.KindSnapshot {
			t.Errorf("unexpected record kind %d", rec.Kind)
		}
		got = append(got, bytes.Clone(rec.Payload))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("store replayed %d snapshots, live run exported %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("snapshot %d: stored payload differs from live export (%d vs %d bytes)",
				i, len(got[i]), len(want[i]))
		}
	}
	if err := store.Verify(storeDir); err != nil {
		t.Fatalf("Verify on pristine store: %v", err)
	}

	// The on-disk query path answers from the same store.
	out := run(t, filepath.Join(dir, "nocquery"),
		"-store", storeDir, "-verify", "-windows", "-top", "5")
	for _, wantLine := range []string{"store chain verified", "merged", "phi[size]=", "heavy hitters"} {
		if !strings.Contains(out, wantLine) {
			t.Fatalf("nocquery output missing %q:\n%s", wantLine, out)
		}
	}
	// Fewer than one heavy hitter is bad input, not a request for ten;
	// so is a negative span, which would otherwise query the whole store,
	// an inverted range, which would find nothing in it, and a span with
	// a range, of which one would be ignored.
	if out := runExit(t, 2, filepath.Join(dir, "nocquery"), "-store", storeDir, "-top", "0"); !strings.Contains(out, "Usage of") {
		t.Fatalf("nocquery -top 0 printed no usage:\n%s", out)
	}
	if out := runExit(t, 2, filepath.Join(dir, "nocquery"), "-store", storeDir, "-last", "-1h"); !strings.Contains(out, "Usage of") {
		t.Fatalf("nocquery -last -1h printed no usage:\n%s", out)
	}
	if out := runExit(t, 2, filepath.Join(dir, "nocquery"), "-store", storeDir, "-from", "10", "-to", "5"); !strings.Contains(out, "Usage of") {
		t.Fatalf("nocquery -from 10 -to 5 printed no usage:\n%s", out)
	}
	runUsage(t, "Usage of", filepath.Join(dir, "nocquery"), "-store", storeDir, "-last", "1h", "-from", "3")

	// The streaming query path over a store of 1 s windows (30 of them),
	// pinned byte for byte: per-window lines, merged histograms, a top-3
	// pick, and a node-filtered trailing span.
	fineDir := filepath.Join(t.TempDir(), "finestore")
	run(t, filepath.Join(dir, "nsd"),
		"-in", trPath, "-method", "systematic", "-k", "50", "-shards", "1",
		"-window", "1s", "-name", "store-node", "-once", "-q", "-store", fineDir)
	var golden bytes.Buffer
	for _, args := range [][]string{
		{"-windows", "-hist", "-top", "3"},
		{"-node", "store-node", "-last", "10s"},
	} {
		fmt.Fprintf(&golden, "$ nocquery %s\n", strings.Join(args, " "))
		cmd := exec.Command(filepath.Join(dir, "nocquery"), append([]string{"-store", fineDir}, args...)...)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("nocquery %v: %v", args, err)
		}
		golden.Write(out)
	}
	checkGolden(t, filepath.Join("testdata", "nocquery_fine_windows.txt"), golden.Bytes())
	if out := runExit(t, 1, filepath.Join(dir, "nocquery"), "-store", fineDir, "-node", "other"); !strings.Contains(out, "no snapshots in range") {
		t.Fatalf("nocquery -node other:\n%s", out)
	}

	// Flip one byte in the middle of the first sealed segment: Verify
	// must refuse, naming that segment and a plausible offset.
	segs := r.Segments()
	if len(segs) < 2 || !segs[0].Sealed {
		t.Fatalf("store layout unexpected: %+v", segs)
	}
	segPath := filepath.Join(storeDir, segs[0].Name)
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(data)
	mut[len(mut)/2] ^= 0x10
	if err := os.WriteFile(segPath, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	verr := store.Verify(storeDir)
	var ce *store.CorruptionError
	if !errors.As(verr, &ce) {
		t.Fatalf("Verify after flip = %v, want CorruptionError", verr)
	}
	if ce.Segment != segs[0].Name {
		t.Fatalf("corruption attributed to %s, flipped byte lives in %s", ce.Segment, segs[0].Name)
	}
	if ce.Offset < 0 || ce.Offset > int64(len(mut)) {
		t.Fatalf("corruption offset %d outside segment of %d bytes", ce.Offset, len(mut))
	}
}

// TestNocqueryRefusesBrokenChain: nocquery's read path walks the same
// chain Verify does, so a store with a middle segment deleted is
// refused without -verify too — the query exits non-zero naming the
// missing segment instead of merging the windows that survive.
func TestNocqueryRefusesBrokenChain(t *testing.T) {
	dir := buildTools(t, "nstrace", "nsd", "nocquery")
	storeDir := filepath.Join(t.TempDir(), "snapstore")
	in := genTrace(t, dir, "-seconds", "10", "-seed", "1993")
	run(t, filepath.Join(dir, "nsd"), "-in", in, "-window", "1s", "-once", "-q",
		"-store", storeDir, "-store-segment", "2")
	segs, err := filepath.Glob(filepath.Join(storeDir, "seg-*.nss"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("store holds segments %v (%v), want at least 3", segs, err)
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	out := runExit(t, 1, filepath.Join(dir, "nocquery"), "-store", storeDir, "-windows")
	if !strings.Contains(out, filepath.Base(segs[1])) {
		t.Fatalf("nocquery did not name the missing segment %s:\n%s", filepath.Base(segs[1]), out)
	}
}

// TestNocqueryStopsAtUndecodableRecord: a record whose frame is intact
// but whose payload is no snapshot ends the streamed query with exit
// status 1 naming its segment and offset. -windows has by then printed
// the windows before it, and no merged summary follows.
func TestNocqueryStopsAtUndecodableRecord(t *testing.T) {
	dir := buildTools(t, "nocquery")
	storeDir := filepath.Join(t.TempDir(), "snapstore")
	w, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []*collect.Snapshot{
		{Node: "n1", Seq: 1, WindowStartUS: 0, WindowEndUS: 1000, Selected: 7},
		nil, // an undecodable payload
		{Node: "n1", Seq: 3, WindowStartUS: 2000, WindowEndUS: 3000, Selected: 9},
	} {
		var err error
		if s == nil {
			err = w.Append(store.KindSnapshot, 2000, []byte("not a snapshot"))
		} else {
			err = w.AppendSnapshot(s)
		}
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(dir, "nocquery"), "-store", storeDir, "-windows")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("nocquery: %v, want exit status 1\n%s%s", err, out, stderr.String())
	}
	if !strings.Contains(string(out), "window n1/1 ") || strings.Contains(string(out), "n1/3") || strings.Contains(string(out), "merged") {
		t.Fatalf("stdout should list window 1 only, and no merge:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "seg-00000001.nss: offset") {
		t.Fatalf("stderr does not name the record:\n%s", stderr.String())
	}
}

// TestNSDStoreCountsLostWindows: nsd -store against a store that
// refuses every write must still cut and print every window, then name
// how many the store lost and exit 1. No permission bit stops root, so
// a zero file-size limit makes every segment write fail.
func TestNSDStoreCountsLostWindows(t *testing.T) {
	dir := buildTools(t, "nstrace", "nsd")
	in := genTrace(t, dir, "-seconds", "10", "-seed", "1993")
	out := runExit(t, 1, "sh", "-c", `ulimit -f 0 && exec "$0" "$@"`, filepath.Join(dir, "nsd"),
		"-in", in, "-window", "1s", "-once", "-store", filepath.Join(t.TempDir(), "store"))
	windows := len(regexp.MustCompile(`(?m)^window \d+ `).FindAllString(out, -1))
	if want := fmt.Sprintf("store: %d window(s) not persisted", windows); windows < 9 || !strings.Contains(out, want) {
		t.Fatalf("nsd cut %d windows and did not report them all lost (%q):\n%s", windows, want, out)
	}
}

// TestNoccollectStoreCountsLostWindows is the same rule for the NOC
// side: noccollect -store against a store that refuses every write must
// name how many collected windows it lost and exit 1. No permission bit
// stops root, so a zero file-size limit makes every segment write fail.
func TestNoccollectStoreCountsLostWindows(t *testing.T) {
	dir := buildTools(t, "nstrace", "nsd", "noccollect")
	in := genTrace(t, dir, "-seconds", "10", "-seed", "1993")
	addr := serveNSD(t, filepath.Join(dir, "nsd"), "-in", in, "-window", "1s")
	// Two cycles read window 10 twice: one window collected, one lost.
	out := runExit(t, 1, "sh", "-c", `ulimit -f 0 && exec "$0" "$@"`, filepath.Join(dir, "noccollect"),
		"-agents", addr, "-cycles", "2", "-interval", "10ms", "-store", filepath.Join(t.TempDir(), "store"))
	if !strings.Contains(out, "store: 1 window(s) not persisted") {
		t.Fatalf("noccollect did not count the lost window:\n%s", out)
	}
}

// checkGolden compares got with the golden file at path, rewriting the
// file instead when NSGEN_GOLDEN is set.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("NSGEN_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with NSGEN_GOLDEN=1 to create)", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: output differs from golden; regenerate with NSGEN_GOLDEN=1 if intentional\ngot:\n%s", path, got)
	}
}
