package netsample

import (
	"bufio"
	"bytes"
	"errors"
	"go/build"
	"go/parser"
	"go/token"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"netsample/internal/bins"
	"netsample/internal/collect"
	"netsample/internal/core"
	"netsample/internal/dist"
	"netsample/internal/metrics"
	"netsample/internal/trace"
)

// buildTools compiles the CLI tools once per test process and returns
// the binary directory. Skipped in -short mode.
func buildTools(t *testing.T, tools ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	dir := t.TempDir()
	for _, tool := range tools {
		bin := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// runExit runs bin, which must exit with status code, and returns its
// combined output.
func runExit(t *testing.T, code int, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != code {
		t.Fatalf("%s %v: %v, want exit status %d\n%s", filepath.Base(bin), args, err, code, out)
	}
	return string(out)
}

// runUsage runs bin with args and requires a refusal as bad usage:
// exit status 2, a usage text containing usage on stderr, and nothing
// on stdout.
func runUsage(t *testing.T, usage, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 || stdout.Len() > 0 || !strings.Contains(stderr.String(), usage) {
		t.Errorf("%s %v: %v, want exit status 2 with usage and no stdout:\n%s%s", filepath.Base(bin), args, err, &stdout, &stderr)
	}
}

func TestCLIGenerateSampleEvaluate(t *testing.T) {
	dir := buildTools(t, "nstrace")
	tr := filepath.Join(t.TempDir(), "t.nstr")

	// gen: a 30-second trace.
	out := run(t, filepath.Join(dir, "nstrace"), "gen",
		"-out", tr, "-seconds", "30", "-pps", "600", "-seed", "42")
	if !strings.Contains(out, "wrote") {
		t.Fatalf("nstrace gen output: %s", out)
	}
	// An unknown scenario is refused, naming the presets.
	bad, err := exec.Command(filepath.Join(dir, "nstrace"), "gen", "-out", tr+".x", "-scenario", "nope").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || !strings.Contains(string(bad), `unknown scenario "nope" (have ddos, flashcrowd, hhchurn, portscan, elephantmice)`) {
		t.Fatalf("nstrace gen -scenario nope: err %v, want a non-zero exit naming the presets:\n%s", err, bad)
	}

	// sample: 1-in-50 systematic.
	sub := filepath.Join(t.TempDir(), "s.nstr")
	out = run(t, filepath.Join(dir, "nstrace"), "sample",
		"-in", tr, "-out", sub, "-method", "systematic", "-k", "50")
	if !strings.Contains(out, "systematic/packet") || !strings.Contains(out, "fraction 0.02") {
		t.Fatalf("nstrace sample output: %s", out)
	}

	// phi: all metrics for stratified sampling.
	out = run(t, filepath.Join(dir, "nstrace"), "phi",
		"-in", tr, "-method", "stratified", "-k", "50", "-target", "size", "-reps", "3")
	if !strings.Contains(out, "mean phi:") {
		t.Fatalf("nstrace phi output: %s", out)
	}
	// A flag value no run can use is bad usage: exit 2 with the usage
	// text, before any file is read or written — the input named here
	// does not exist, and opening it would exit 1.
	missing := filepath.Join(t.TempDir(), "missing.nstr")
	for _, args := range [][]string{
		{"phi", "-in", missing, "-reps", "0"},
		{"phi", "-in", missing, "-reps", "-1"},
		{"phi", "-in", missing, "-target", "bogus"},
		{"phi", "-in", missing, "-format", "xml"},
		{"phi", "-in", missing, "-method", "adaptive"},
		{"phi", "-in", missing, "-k", "0"},
		{"sample", "-in", missing, "-out", sub, "-k", "0"},
		{"sample", "-in", missing, "-out", sub, "-method", "adaptive"},
		{"sample", "-in", missing, "-out", sub, "-method", "stratified", "-offset", "5"},
		{"sample", "-in", missing, "-out", sub, "-method", "systematic-timer", "-offset", "-1"},
		{"sample", "-in", missing, "-out", sub, "-offset", "-1"},
		{"sample", "-in", missing, "-out", sub, "-k", "10", "-offset", "10"},
		{"info", "-in", missing, "-format", "xml"},
		{"info", "-in", missing, "-flows", "-flow-timeout", "-1s"},
		{"info", "-in", missing, "-flow-timeout", "0"},
		{"gen", "-out", tr + ".zero", "-seconds", "0"},
		{"gen", "-out", tr + ".neg", "-pps", "-5"},
		{"gen", "-out", tr + ".nan", "-pps", "NaN"},
		{"gen", "-out", tr + ".inf", "-pps", "+Inf"},
		{"gen", "-out", tr + ".tnan", "-trend", "NaN"},
		{"gen", "-out", tr + ".tinf", "-trend", "+Inf"},
		{"gen", "-out", tr + ".tninf", "-trend", "-Inf"},
	} {
		runUsage(t, "usage:", filepath.Join(dir, "nstrace"), args...)
		if args[0] == "gen" {
			if _, err := os.Stat(args[2]); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("nstrace %v left %s behind: %v", args, args[2], err)
			}
		}
	}
	// The usage names the methods -method takes.
	if out := runExit(t, 2, filepath.Join(dir, "nstrace"), "phi", "-in", missing, "-method", "adaptive"); !strings.Contains(out, "systematic|stratified|random|systematic-timer|stratified-timer") {
		t.Errorf("nstrace phi -method adaptive: usage lists no methods:\n%s", out)
	}

	// info on the original and pcap conversion round trip.
	pcap := filepath.Join(t.TempDir(), "t.pcap")
	out = run(t, filepath.Join(dir, "nstrace"), "info", "-in", tr, "-convert", pcap)
	if !strings.Contains(out, "table2") || !strings.Contains(out, "protocol composition") {
		t.Fatalf("nstrace info output: %s", out)
	}
	out = run(t, filepath.Join(dir, "nstrace"), "info", "-in", pcap, "-format", "pcap")
	if !strings.Contains(out, "table3") {
		t.Fatalf("nstrace info pcap output: %s", out)
	}
}

func TestCLIExperimentsQuick(t *testing.T) {
	dir := buildTools(t, "experiments")
	out := run(t, filepath.Join(dir, "experiments"), "-quick", "-only", "sec5.2")
	if !strings.Contains(out, "replications rejected at the 0.05 level") {
		t.Fatalf("experiments output: %s", out)
	}
	out = run(t, filepath.Join(dir, "experiments"), "-quick", "-only", "figure7", "-format", "csv")
	if !strings.HasPrefix(out, "artifact,granularity,mean_phi") {
		t.Fatalf("experiments csv output: %s", out)
	}
}

// TestCLIExperimentsOnly holds -only to running what it prints: an id
// that does not exist is refused before the population is touched, and
// an artifact that needs no sample is rendered on a trace too short for
// the figures that do.
func TestCLIExperimentsOnly(t *testing.T) {
	dir := buildTools(t, "experiments", "nstrace")
	experiments := filepath.Join(dir, "experiments")

	// The trace file does not exist; were it opened, that would be the
	// complaint.
	missing := filepath.Join(t.TempDir(), "missing.nstr")
	bad, err := exec.Command(experiments, "-in", missing, "-only", "nosuch").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(bad), `no artifact with id "nosuch"`) {
		t.Fatalf("experiments -only nosuch: err %v, want exit 1 naming the id:\n%s", err, bad)
	}
	// A format no renderer has, an -only or -in the matrix would
	// ignore, a -seed or -k the suite would ignore, and a granularity
	// under 1 are bad usage, refused before any population is built.
	for _, args := range [][]string{
		{"-quick", "-format", "xml"},
		{"-matrix", "-only", "figure8"},
		{"-matrix", "-in", missing},
		{"-quick", "-only", "table1", "-k", "10"},
		{"-quick", "-only", "table1", "-seed", "7"},
		{"-quick", "-only", "table1", "-k", "0", "-seed", "7"},
		{"-matrix", "-quick", "-k", "0"},
		{"-in", missing, "-k", "0"},
	} {
		if out := runExit(t, 2, experiments, args...); !strings.Contains(out, "Usage of") {
			t.Errorf("experiments %v printed no usage:\n%s", args, out)
		}
	}

	short := filepath.Join(t.TempDir(), "short.nstr")
	run(t, filepath.Join(dir, "nstrace"), "gen", "-out", short, "-seconds", "1", "-q")
	out := run(t, experiments, "-in", short, "-only", "table3")
	if !strings.HasPrefix(out, "== table3:") || strings.Count(out, "== ") != 1 {
		t.Fatalf("experiments -only table3 on a one-second trace: %s", out)
	}
}

// TestCLICollectionPair drives the collection plane end to end: nsd
// cuts ten one-second windows and serves the last, noccollect polls it
// into a store, and nocquery answers from that store. Polling starts
// only once nsd has drained, so the one poll reads window 10, and
// noccollect must say that windows 1–9 were cut between polls and not
// collected.
func TestCLICollectionPair(t *testing.T) {
	dir := buildTools(t, "nstrace", "nsd", "noccollect", "nocquery")
	in := genTrace(t, dir, "-seconds", "10", "-seed", "1993")
	addr := serveNSD(t, filepath.Join(dir, "nsd"), "-in", in, "-window", "1s", "-name", "test-node")

	storeDir := filepath.Join(t.TempDir(), "store")
	out := run(t, filepath.Join(dir, "noccollect"),
		"-agents", addr, "-cycles", "1", "-interval", "1s", "-store", storeDir)
	for _, want := range []string{
		"--- cycle 1 (1 nodes, 0 failed, missed=9) ---",
		"node test-node: windows 1–9 cut between polls, not collected",
		"test-node seq=10 ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("noccollect output missing %q:\n%s", want, out)
		}
	}
	// A negative retry count is bad input, not a poll that never dials.
	// So are a negative cycle count and a group commit under one
	// snapshot, which would run nothing or run with the default, and a
	// negative interval, backoff or backoff cap, which would run as none.
	// A group commit without a store would be ignored, and an empty
	// agent address polled as a node that always fails.
	for _, bad := range [][]string{
		{"-retries", "-1"}, {"-cycles", "-1"}, {"-cycles", "1", "-store", storeDir, "-store-sync", "0"},
		{"-cycles", "1", "-interval", "-1s"}, {"-cycles", "1", "-backoff", "-1ms"}, {"-cycles", "1", "-max-backoff", "-1s"},
		{"-cycles", "1", "-store-sync", "5"}, {"-cycles", "1", "-agents", ","}, {"-cycles", "1", "-agents", addr + ",," + addr},
	} {
		runUsage(t, "Usage of", filepath.Join(dir, "noccollect"), append([]string{"-agents", addr}, bad...)...)
	}
	out = run(t, filepath.Join(dir, "nocquery"), "-store", storeDir, "-verify", "-windows")
	for _, want := range []string{"store chain verified", "window test-node/10 ", "merged 1 windows from test-node"} {
		if !strings.Contains(out, want) {
			t.Fatalf("nocquery output missing %q:\n%s", want, out)
		}
	}
}

// genTrace writes a trace with the nstrace binary in dir, gen's args
// appended, and returns its path.
func genTrace(t *testing.T, dir string, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "gen.nstr")
	run(t, filepath.Join(dir, "nstrace"), append([]string{"gen", "-q", "-out", path}, args...)...)
	return path
}

// TestNSDRefusesBeforeServing: input nsd cannot run as asked ends the
// process with status 1 and one log line before the listen banner or
// any window line — a torn trace file, a timer k whose period
// overflows (not run as a census), a NaN φ budget (not run with a dead
// controller). A flag value out of range is usage: status 2.
func TestNSDRefusesBeforeServing(t *testing.T) {
	dir := buildTools(t, "nstrace", "nsd")
	in := genTrace(t, dir, "-seconds", "30")
	whole, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.nstr")
	if err := os.WriteFile(torn, whole[:20_000], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-in", torn}, "region truncated (832 of "},
		{[]string{"-in", in, "-method", "systematic-timer", "-k", "4611686018427387904"}, "past int64"},
		{[]string{"-in", in, "-method", "stratified-timer", "-k", "4611686018427387904"}, "past int64"},
	} {
		out := runExit(t, 1, filepath.Join(dir, "nsd"), append(tc.args, "-once")...)
		if !strings.Contains(out, tc.want) || strings.Count(out, "\n") != 1 {
			t.Errorf("nsd %v: want one line naming %q:\n%s", tc.args, tc.want, out)
		}
	}
	// A value nsd would silently replace with a default, ignore or
	// refuse only once the trace is open is bad usage: store batches and
	// segments under one snapshot, either store flag without -store, no
	// heavy hitters, a flow timeout or
	// window that truncates to 0 µs, no shards, a controller flag
	// without -adaptive, and under it k bounds out of order, a target
	// that is not positive, a method other than systematic or no
	// window. Each exits before it writes a byte to stdout.
	store := filepath.Join(t.TempDir(), "store")
	for _, bad := range [][]string{{"-store", store, "-store-sync", "-3"}, {"-store", store, "-store-segment", "0"},
		{"-store-sync", "5"}, {"-store-segment", "3"}, {"-topk", "0"},
		{"-flow-timeout", "0"}, {"-flow-timeout", "999ns"}, {"-window", "500ns"}, {"-shards", "0"},
		{"-target", "-1"}, {"-min-k", "0", "-max-k", "-3"}, {"-max-k", "64"},
		{"-adaptive", "-window", "30s", "-target", "-1"},
		{"-adaptive", "-window", "5s", "-target", "NaN"},
		{"-adaptive", "-window", "5s", "-min-k", "0"},
		{"-adaptive", "-window", "5s", "-k", "8", "-min-k", "16"},
		{"-adaptive", "-window", "5s", "-k", "8", "-max-k", "4"},
		{"-adaptive", "-window", "5s", "-method", "stratified"},
		{"-adaptive"}} {
		runUsage(t, "Usage of", filepath.Join(dir, "nsd"), append([]string{"-in", in, "-q", "-once"}, bad...)...)
	}
}

// serveNSD starts nsd -q -listen 127.0.0.1:0 with args, waits until it
// has drained its source and serves the final window, and returns the
// agent address. Cleanup sends SIGTERM, which must exit 0.
func serveNSD(t *testing.T, bin string, args ...string) string {
	t.Helper()
	daemon := exec.Command(bin, append([]string{"-q", "-listen", "127.0.0.1:0"}, args...)...)
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
			t.Error(err)
		}
		if err := daemon.Wait(); err != nil {
			t.Errorf("nsd exit after SIGTERM: %v", err)
		}
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no banner from nsd: %v", sc.Err())
	}
	addr, ok := strings.CutPrefix(sc.Text(), "nsd: listening on ")
	if !ok {
		t.Fatalf("unexpected banner: %q", sc.Text())
	}
	for logs := bufio.NewScanner(stderr); !strings.Contains(logs.Text(), "source drained"); {
		if !logs.Scan() {
			t.Fatalf("nsd exited before draining: %v", logs.Err())
		}
	}
	return addr
}

// nsdReportBits flattens a report to its float64 bit patterns so the
// daemon-vs-batch comparison is exact, not approximate.
func nsdReportBits(r metrics.Report) [7]uint64 {
	return [7]uint64{
		math.Float64bits(r.ChiSquare), math.Float64bits(r.Significance),
		math.Float64bits(r.Cost), math.Float64bits(r.RelativeCost),
		math.Float64bits(r.PaxsonX2), math.Float64bits(r.AvgNormDev),
		math.Float64bits(r.Phi),
	}
}

// TestNSDSnapshotMatchesBatch is the daemon's end-to-end deterministic
// guarantee, tier-1 enforced: run nsd on a fixed trace, poll its final
// snapshot over the collect wire protocol, and require the exported
// reports to be bit-identical to the batch core sampler + evaluator on
// the same trace and seed — at one shard and at four alike, which also
// makes `selected` the same for both. It also covers the clean SIGTERM
// path.
func TestNSDSnapshotMatchesBatch(t *testing.T) {
	dir := buildTools(t, "nstrace", "nsd")
	trPath := filepath.Join(t.TempDir(), "t.nstr")
	run(t, filepath.Join(dir, "nstrace"), "gen",
		"-out", trPath, "-seconds", "30", "-pps", "600", "-seed", "42", "-q")

	// Batch reference on the exact trace the daemon will stream, cut to a
	// whole number of 50-packet buckets: over a partial tail bucket the
	// batch stratified sampler draws a different index than the online one.
	f, err := os.Open(trPath)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	tr.Packets = tr.Packets[:tr.Len()-tr.Len()%50]
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatalf("encode trimmed trace: %v", err)
	}
	if err := os.WriteFile(trPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	sizeEval, err := core.NewEvaluator(tr, core.TargetSize, bins.PacketSize())
	if err != nil {
		t.Fatalf("size evaluator: %v", err)
	}
	iatEval, err := core.NewEvaluator(tr, core.TargetInterarrival, bins.Interarrival())
	if err != nil {
		t.Fatalf("iat evaluator: %v", err)
	}
	period, err := core.PeriodForGranularity(tr, 50)
	if err != nil {
		t.Fatalf("period: %v", err)
	}

	for _, tc := range []struct {
		method string
		batch  core.Sampler
		shards int
	}{
		{"systematic", core.SystematicCount{K: 50}, 1},
		{"systematic-timer", core.SystematicTimer{PeriodUS: period}, 1},
		{"systematic-timer", core.SystematicTimer{PeriodUS: period}, 4},
		{"stratified", core.StratifiedCount{K: 50}, 1},
		{"stratified", core.StratifiedCount{K: 50}, 4},
		{"stratified-timer", core.StratifiedTimer{PeriodUS: period}, 1},
		{"stratified-timer", core.StratifiedTimer{PeriodUS: period}, 4},
	} {
		t.Run(tc.method+"/shards="+strconv.Itoa(tc.shards), func(t *testing.T) {
			// nsd's random methods draw from the seed's first child stream.
			idx, err := tc.batch.Select(tr, dist.NewRNG(1993).Split())
			if err != nil {
				t.Fatalf("batch select: %v", err)
			}
			wantSize, err := sizeEval.Score(idx)
			if err != nil {
				t.Fatalf("batch size score: %v", err)
			}
			wantIat, err := iatEval.Score(idx)
			if err != nil {
				t.Fatalf("batch iat score: %v", err)
			}

			daemon := exec.Command(filepath.Join(dir, "nsd"),
				"-in", trPath, "-method", tc.method, "-k", "50", "-seed", "1993",
				"-shards", strconv.Itoa(tc.shards),
				"-listen", "127.0.0.1:0", "-name", "e2e-node", "-q")
			stdout, err := daemon.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := daemon.Start(); err != nil {
				t.Fatal(err)
			}
			waited := false
			defer func() {
				if !waited {
					_ = daemon.Process.Kill()
					_ = daemon.Wait()
				}
			}()

			sc := bufio.NewScanner(stdout)
			if !sc.Scan() {
				t.Fatalf("no banner from nsd: %v", sc.Err())
			}
			banner := sc.Text()
			const prefix = "nsd: listening on "
			if !strings.HasPrefix(banner, prefix) {
				t.Fatalf("unexpected banner: %q", banner)
			}
			addr := strings.TrimSpace(strings.TrimPrefix(banner, prefix))

			// The daemon drains the trace and then serves the final snapshot
			// until signalled; poll until that snapshot appears.
			coll := collect.NewCollector()
			var snap *collect.Snapshot
			deadline := time.Now().Add(30 * time.Second)
			for {
				snap, err = coll.PollSnapshot(addr)
				if err == nil && snap.Final {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no final snapshot before deadline: snap=%+v err=%v", snap, err)
				}
				time.Sleep(50 * time.Millisecond)
			}

			if snap.Node != "e2e-node" || int(snap.Shards) != tc.shards {
				t.Errorf("snapshot identity = node %q, %d shards", snap.Node, snap.Shards)
			}
			if snap.Processed != uint64(tr.Len()) || snap.Dropped != 0 {
				t.Errorf("processed %d dropped %d, want %d and 0",
					snap.Processed, snap.Dropped, tr.Len())
			}
			if snap.Selected != uint64(len(idx)) {
				t.Errorf("selected %d packets, batch selected %d", snap.Selected, len(idx))
			}
			if snap.SizeReport == nil || snap.IatReport == nil {
				t.Fatalf("snapshot missing reports: %+v", snap)
			}
			if got, want := nsdReportBits(*snap.SizeReport), nsdReportBits(wantSize); got != want {
				t.Errorf("size report bits = %v, want %v", got, want)
			}
			if got, want := nsdReportBits(*snap.IatReport), nsdReportBits(wantIat); got != want {
				t.Errorf("iat report bits = %v, want %v", got, want)
			}
			for _, phi := range []float64{snap.SizeReport.Phi, snap.IatReport.Phi} {
				if math.IsNaN(phi) || math.IsInf(phi, 0) {
					t.Errorf("non-finite phi %v in exported snapshot", phi)
				}
			}

			// Clean shutdown: SIGTERM must drain and exit zero.
			if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			waited = true
			if err := daemon.Wait(); err != nil {
				t.Errorf("nsd exit after SIGTERM: %v", err)
			}
		})
	}
}

func TestCLITraceinfoFlows(t *testing.T) {
	dir := buildTools(t, "nstrace")
	tr := filepath.Join(t.TempDir(), "t.nstr")
	run(t, filepath.Join(dir, "nstrace"), "gen", "-out", tr, "-seconds", "20", "-pps", "500", "-q")
	out := run(t, filepath.Join(dir, "nstrace"), "info", "-in", tr, "-flows")
	if !strings.Contains(out, "largest flows:") || !strings.Contains(out, "singletons") {
		t.Fatalf("nstrace info -flows output: %s", out)
	}
}

// TestCLITraceinfoTiesByName runs nstrace info repeatedly on one trace:
// composition rows with equal counts print in name order, not in the
// map order they are gathered in.
func TestCLITraceinfoTiesByName(t *testing.T) {
	dir := buildTools(t, "nstrace")
	tr := filepath.Join(t.TempDir(), "t.nstr")
	run(t, filepath.Join(dir, "nstrace"), "gen", "-out", tr, "-seconds", "2", "-pps", "20", "-seed", "1", "-q")
	const want = "well-known ports: ftp-data:26 telnet:8 domain:4 smtp:4"
	for i := 0; i < 8; i++ {
		if out := run(t, filepath.Join(dir, "nstrace"), "info", "-in", tr); !strings.Contains(out, want) {
			t.Fatalf("run %d: want %q in\n%s", i, want, out)
		}
	}
}

// exampleDirs lists the runnable examples, one directory each under
// examples/.
func exampleDirs(t *testing.T) []string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	for i, d := range dirs {
		dirs[i] = filepath.Dir(d)
	}
	return dirs
}

// TestExamplesUseOnlyFacade holds every example to the public door: a
// user outside the module can import netsample and the standard
// library, and nothing under internal/.
func TestExamplesUseOnlyFacade(t *testing.T) {
	for _, dir := range exampleDirs(t) {
		src := filepath.Join(dir, "main.go")
		f, err := parser.ParseFile(token.NewFileSet(), src, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if path == "netsample" {
				continue
			}
			if pkg, err := build.Import(path, "", build.FindOnly); err != nil || !pkg.Goroot {
				t.Errorf("%s imports %q: an example imports only netsample and the standard library", src, path)
			}
		}
	}
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("example runs skipped in -short mode")
	}
	for _, dir := range exampleDirs(t) {
		cmd := exec.Command("go", "run", "./"+filepath.ToSlash(dir))
		cmd.Env = os.Environ()
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("example %s: %v\n%s", dir, err, out)
		}
		if len(out) == 0 {
			t.Fatalf("example %s produced no output", dir)
		}
	}
}
