package netsample_test

import (
	"path/filepath"
	"sync"
	"testing"

	"netsample/internal/analysis"
)

// moduleLint loads and audits the whole module exactly once: the three
// tier-1 lint tests below all need the same full type-checked load, and
// sharing it keeps `go test .` at one sweep instead of three.
var moduleLint struct {
	once   sync.Once
	err    error
	loader *analysis.Loader
	module *analysis.Module
	diags  []analysis.Diagnostic
	allows []analysis.AllowSite
}

// lintModule returns the shared module audit, loading on first use.
func lintModule(t *testing.T) (*analysis.Loader, *analysis.Module, []analysis.Diagnostic, []analysis.AllowSite) {
	t.Helper()
	if testing.Short() {
		t.Skip("lint sweep type-checks the whole module; skipped in -short mode")
	}
	m := &moduleLint
	m.once.Do(func() {
		loader, err := analysis.NewLoader(".")
		if err != nil {
			m.err = err
			return
		}
		pkgs, err := loader.Load("./...")
		if err != nil {
			m.err = err
			return
		}
		m.loader = loader
		m.module = analysis.NewModule(pkgs)
		m.diags, m.allows = m.module.RunAudit(analysis.DefaultRules(loader.ModulePath))
	})
	if m.err != nil {
		t.Fatalf("module lint load: %v", m.err)
	}
	if len(m.module.Pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	return m.loader, m.module, m.diags, m.allows
}

// TestLintModule is the tier-1 invariant gate: it runs the full nslint
// rule set over every package of the module, so `go test ./...` fails
// the moment a stdlib randomness import, a naked wall-clock read, a
// shared RNG, an exact float comparison, a dropped module error, a
// sync/atomic function call in place of a typed atomic, an
// unjoined goroutine, a blocking call under a mutex, an allocation on
// the //nslint:hotpath closure, or a declaration nothing shipped can
// reach is introduced. Suppressions require
// an explicit `//nslint:allow <rule> <reason>` at the finding site.
func TestLintModule(t *testing.T) {
	_, _, diags, _ := lintModule(t)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("fix the findings or annotate intentional sites with `//nslint:allow <rule> <reason>`")
	}
}

// TestAllowHygiene audits every //nslint:allow annotation in the
// module: each must name a rule that exists, carry a reason, and
// actually suppress a finding in this run. A stale allow — left behind
// after the code it excused was fixed or deleted — is itself a failure,
// so suppressions can never silently outlive their justification.
// (Missing reasons and unknown directive syntax are already findings of
// the unsuppressible "nslint" pseudo-rule, so TestLintModule catches
// those; this test closes the remaining gaps.)
func TestAllowHygiene(t *testing.T) {
	loader, _, _, allows := lintModule(t)
	known := make(map[string]bool)
	for _, r := range analysis.DefaultRules(loader.ModulePath) {
		known[r.Name()] = true
	}
	if len(allows) == 0 {
		t.Fatal("no allow annotations found; the module is known to carry justified suppressions")
	}
	for _, a := range allows {
		if !known[a.Rule] {
			t.Errorf("%s:%d: allow names unknown rule %q", a.File, a.Line, a.Rule)
		}
		if a.Reason == "" {
			t.Errorf("%s:%d: allow for %q has no reason", a.File, a.Line, a.Rule)
		}
		if !a.Used {
			t.Errorf("%s:%d: stale allow: no %q finding on this line to suppress — delete it or fix the drift",
				a.File, a.Line, a.Rule)
		}
	}
}

// TestHotClosureCoversAllocPinnedPaths cross-checks the static hotalloc
// contract against the dynamic allocation-budget tests: every function
// on the per-packet path that TestPipelineHotPathAllocs exercises, and
// the per-flow generator loop that TestGenerateAllocs exercises, must
// be inside the //nslint:hotpath transitive closure. If a refactor
// reroutes the hot loop around the annotated roots, the closure loses
// the function and this test fails before the allocation regresses.
func TestHotClosureCoversAllocPinnedPaths(t *testing.T) {
	loader, module, _, _ := lintModule(t)
	mp := loader.ModulePath
	wanted := []string{
		// TestPipelineHotPathAllocs: adapt → read and sample → route →
		// shard, per packet.
		"(*" + mp + "/internal/pipeline.recordAdapter).NextRawBatch",
		mp + "/internal/trace.EncodeRecords",
		"(*" + mp + "/internal/pipeline.Pipeline).readRaw",
		"(*" + mp + "/internal/pipeline.Pipeline).shardWorker",
		"(*" + mp + "/internal/pipeline.shardState).process",
		"(*" + mp + "/internal/flows.Counter).AddHashed",
		"(*" + mp + "/internal/nnstat.TopK).AddHashed",
		mp + "/internal/nnstat.tkAdd",
		mp + "/internal/bins.SizeBin",
		mp + "/internal/bins.GapBin",
		// TestTableAddDoesNotAllocAfterFlush, TestAddBytesDoesNotAllocOn*:
		// the record decomposer's Add and the sketch wrapper that hashes
		// for a caller without a hash (roots of their own; the pipeline
		// does not pass through them).
		"(*" + mp + "/internal/flows.Table).Add",
		"(*" + mp + "/internal/nnstat.TopK).AddBytes",
		"(*" + mp + "/internal/online.Systematic).Offer",
		"(*" + mp + "/internal/online.Stratified).Offer",
		// The reader's per-selected-record route and per-window publish,
		// inside the same hot loops.
		"(*" + mp + "/internal/pipeline.ingestState).publish",
		"(*" + mp + "/internal/pipeline.ingestState).route",
		// TestMapReaderHotPathAllocs: the mmap source, per batch of
		// records.
		mp + "/internal/pipeline.DecodeBatch",
		"(*" + mp + "/internal/trace.MapReader).NextRawBatch",
		mp + "/internal/trace.DecodeRecords",
		"(*" + mp + "/internal/bins.Edged).IndexLinear",
		"(*" + mp + "/internal/bins.Edged).IndexBatch",
		// TestGenerateAllocs: the generator's per-flow/per-packet loop,
		// serial and over a block's flows (the fixed per-block scratch
		// is made once per run, before the workers start), and the flow
		// body both share.
		"(*" + mp + "/internal/traffgen.run).stage",
		"(*" + mp + "/internal/traffgen.blockScratch).stageBlock",
		"(*" + mp + "/internal/traffgen.run).emit",
		// ...and the in-place sort of what it staged: a make inside
		// the recursion would be a second trace-sized buffer (the
		// keyed pass's scratch is made once, by the cold sortPackets,
		// which hands each worker's range to finishRange).
		mp + "/internal/traffgen.radixPass",
		mp + "/internal/traffgen.finishRange",
		mp + "/internal/traffgen.digitCounts",
		mp + "/internal/traffgen.keyedSort",
		mp + "/internal/traffgen.sortLeaf",
		mp + "/internal/traffgen.insertionSort",
		// TestStoreAppendAllocs: the durable store's per-record append
		// path (frame encode + leaf hash; sync/seal are cold).
		"(*" + mp + "/internal/store.Writer).Append",
		mp + "/internal/store.appendFrame",
		// TestReplicationScoringZeroAllocs: the fused scoring visit.
		"(*" + mp + "/internal/core.Scorer).Visit",
		// TestCategoricalScoringZeroAllocs: the categorical kernel's
		// per-index visit over the per-packet cell table.
		"(*" + mp + "/internal/core.catScorer).visit",
	}
	in := make(map[string]bool)
	for _, e := range module.HotClosure() {
		in[e.Func.FullName()] = true
	}
	for _, name := range wanted {
		if !in[name] {
			t.Errorf("alloc-pinned function %s is not in the //nslint:hotpath closure", name)
		}
	}
}

// TestAdaptiveControlStaysOffHotPath is the inverse audit of the
// closure test above for the closed-loop sampling controller: the
// per-window control step — merge-time scoring, the Decide law, the
// decision log append — runs in the collector at a window barrier,
// once per window, and must never reach
// the per-packet //nslint:hotpath closure. If a refactor moves the
// decision into the shard workers or the ingest loop (for example to
// avoid the barrier handshake), the coldpath boundary on controlStep
// disappears and this test names the leak directly.
func TestAdaptiveControlStaysOffHotPath(t *testing.T) {
	loader, module, _, _ := lintModule(t)
	mp := loader.ModulePath
	banned := map[string]bool{
		"(*" + mp + "/internal/pipeline.Pipeline).controlStep":    true,
		"(*" + mp + "/internal/pipeline.AdaptiveConfig).Decide":   true,
		"(*" + mp + "/internal/pipeline.AdaptiveConfig).validate": true,
	}
	for _, e := range module.HotClosure() {
		name := e.Func.FullName()
		if banned[name] {
			t.Errorf("adaptive control function %s reached the //nslint:hotpath closure; its //nslint:coldpath boundary is gone", name)
		}
	}
}

// TestUnsafeHasOneImporter is the other half of the nounsafe rule:
// TestLintModule fails on a second importer, this fails if the one the
// rule exempts — the record/packet layout identity in
// internal/trace/layout.go — stops being one, so the exemption cannot
// outlive the file it names.
func TestUnsafeHasOneImporter(t *testing.T) {
	_, module, _, _ := lintModule(t)
	var importers []string
	for _, pkg := range module.Pkgs {
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"unsafe"` {
					importers = append(importers, pkg.Path+"/"+filepath.Base(pkg.Fset.Position(f.Pos()).Filename))
				}
			}
		}
	}
	if len(importers) != 1 || importers[0] != "netsample/internal/trace/layout.go" {
		t.Errorf("non-test importers of unsafe: %v, want exactly internal/trace/layout.go", importers)
	}
}
