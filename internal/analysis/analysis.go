// Package analysis is a stdlib-only static-analysis framework for the
// netsample module, built on go/parser, go/ast and go/types. It exists
// because every experimental result in this reproduction depends on
// bit-for-bit determinism and on a hot path with hard concurrency and
// allocation contracts: traces, samples and φ-scores must regenerate
// identically from a 64-bit seed, and the streaming pipeline's per-packet
// path must stay lock-clean and allocation-free. The rules in this
// package machine-check the invariants that make that true — all
// randomness flows through internal/dist.RNG, wall-clock reads go through
// injectable clock seams, RNGs stay confined to one goroutine, floats are
// never compared with ==, errors from module functions are never silently
// discarded, atomic fields are never mixed with plain access, 64-bit
// atomics are 8-byte aligned, annotated hot paths do not allocate,
// goroutines are tied to shutdown seams, mutexes are never held across
// blocking operations, and every declaration is reachable from
// something the module ships.
//
// Analysis runs over a Module: the type-checked packages plus a
// module-local call graph (static calls and interface dispatch resolved
// against module implementations), so rules can propagate per-function
// facts through callees. Packages are analyzed in parallel; diagnostics
// come out deterministically ordered.
//
// Findings can be suppressed case-by-case with an annotation on the
// offending line or the line directly above it:
//
//	//nslint:allow <rule> <reason>
//
// The reason is mandatory; an allow comment without one is itself
// reported. Two further directives mark the hot-path contract on function
// declarations: //nslint:hotpath (a hotalloc closure root) and
// //nslint:coldpath <reason> (a pruning boundary the closure does not
// cross). The framework is exposed through cmd/nslint (CLI) and the
// module's tier-1 lint_test.go, so `go test ./...` fails on any new
// violation.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"
)

// AllowPrefix is the comment prefix that suppresses a diagnostic.
const AllowPrefix = "//nslint:allow"

// Diagnostic is one rule finding at a concrete source position.
type Diagnostic struct {
	Rule    string         `json:"rule"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
}

// String renders the conventional file:line:col: message [rule] form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Rule)
}

// Rule is one static-analysis check. Check inspects a fully type-checked
// package and reports findings through the Pass.
type Rule interface {
	// Name is the short identifier used in diagnostics and allow comments.
	Name() string
	// Doc is a one-paragraph description of what the rule enforces and why.
	Doc() string
	// Check runs the rule over one package.
	Check(*Pass)
}

// Collector is an optional Rule extension for rules that need
// module-wide facts before checking any single package. Collect is
// called once per package, before any Check call runs; calls to one
// rule's Collect are serialized, so the rule may accumulate state in
// plain fields.
type Collector interface {
	Collect(*Pass)
}

// Module is the unit of analysis: the loaded packages plus the
// module-local call graph rules use to propagate facts through callees.
type Module struct {
	Pkgs  []*Package
	Graph *CallGraph
}

// NewModule builds the call graph over pkgs and returns the analysis
// context shared by all rules.
func NewModule(pkgs []*Package) *Module {
	return &Module{Pkgs: pkgs, Graph: buildCallGraph(pkgs)}
}

// HotClosure returns the transitive //nslint:hotpath closure of the
// module, in deterministic BFS order.
func (m *Module) HotClosure() []HotEntry { return m.Graph.HotClosure() }

// Pass carries one (package, rule) run and collects its diagnostics.
type Pass struct {
	Pkg    *Package
	Module *Module
	rule   string
	diags  *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.rule,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// AllowSite is one //nslint:allow annotation found in the module, with
// whether it actually suppressed a diagnostic during the run. The
// suppression-hygiene test uses this to fail on stale allows.
type AllowSite struct {
	File   string
	Line   int
	Rule   string
	Reason string
	Used   bool
}

// allowKey identifies one allow annotation site.
type allowKey struct {
	file string
	line int
	rule string
}

// Run executes every rule over every package and returns the surviving
// diagnostics sorted by file, line and column. Diagnostics annotated with
// a well-formed //nslint:allow comment (same line or the line directly
// above) are suppressed; malformed allow comments — unknown syntax or a
// missing reason — are reported under the pseudo-rule "nslint" and cannot
// themselves be suppressed.
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	diags, _ := NewModule(pkgs).RunAudit(rules)
	return diags
}

// RunAudit is Run plus the module's allow-annotation inventory, each
// site marked used or stale. Packages run in parallel: rules implementing
// Collector first see every package (collect phase), then every rule
// checks every package (check phase); diagnostics are merged in package
// order so output is deterministic.
func (m *Module) RunAudit(rules []Rule) ([]Diagnostic, []AllowSite) {
	perPkg := make([][]Diagnostic, len(m.Pkgs))
	allowsPerPkg := make([][]*AllowSite, len(m.Pkgs))

	var collectors []Rule
	collectMu := make(map[Rule]*sync.Mutex)
	for _, r := range rules {
		if _, ok := r.(Collector); ok {
			collectors = append(collectors, r)
			collectMu[r] = &sync.Mutex{}
		}
	}
	if len(collectors) > 0 {
		m.forEachPkg(func(i int, pkg *Package) {
			for _, r := range collectors {
				mu := collectMu[r]
				mu.Lock()
				r.(Collector).Collect(&Pass{Pkg: pkg, Module: m, rule: r.Name(), diags: &perPkg[i]})
				mu.Unlock()
			}
		})
	}
	m.forEachPkg(func(i int, pkg *Package) {
		for _, f := range pkg.Files {
			collectAllows(pkg.Fset, f, &allowsPerPkg[i], &perPkg[i])
		}
		for _, r := range rules {
			r.Check(&Pass{Pkg: pkg, Module: m, rule: r.Name(), diags: &perPkg[i]})
		}
	})

	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	diags = append(diags, m.directiveDiags()...)

	allowed := make(map[allowKey]*AllowSite)
	var allows []AllowSite
	sites := make([]*AllowSite, 0)
	for _, pkgAllows := range allowsPerPkg {
		sites = append(sites, pkgAllows...)
	}
	for _, a := range sites {
		allowed[allowKey{a.File, a.Line, a.Rule}] = a
	}

	kept := diags[:0]
	for _, d := range diags {
		if d.Rule != "nslint" {
			if a, ok := allowed[allowKey{d.File, d.Line, d.Rule}]; ok {
				a.Used = true
				continue
			}
			if a, ok := allowed[allowKey{d.File, d.Line - 1, d.Rule}]; ok {
				a.Used = true
				continue
			}
		}
		kept = append(kept, d)
	}
	sortDiags(kept)
	for _, a := range sites {
		allows = append(allows, *a)
	}
	sort.Slice(allows, func(i, j int) bool {
		if allows[i].File != allows[j].File {
			return allows[i].File < allows[j].File
		}
		return allows[i].Line < allows[j].Line
	})
	return kept, allows
}

// forEachPkg runs fn over every package concurrently.
func (m *Module) forEachPkg(fn func(i int, pkg *Package)) {
	var wg sync.WaitGroup
	for i, pkg := range m.Pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			fn(i, pkg)
		}(i, pkg)
	}
	wg.Wait()
}

// directiveDiags reports malformed or misplaced hotpath/coldpath
// directives under the unsuppressible "nslint" pseudo-rule.
func (m *Module) directiveDiags() []Diagnostic {
	var out []Diagnostic
	for _, site := range m.Graph.directives {
		pos := site.pkg.Fset.Position(site.pos)
		var msg string
		switch {
		case site.badForm != "":
			msg = site.badForm
		case !site.consumed:
			msg = fmt.Sprintf("misplaced %s directive: it must appear in a function declaration's doc comment", site.text)
		default:
			continue
		}
		out = append(out, Diagnostic{
			Rule: "nslint", Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: msg,
		})
	}
	return out
}

// sortDiags orders diagnostics by file, line, column, then rule.
func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Rule < diags[j].Rule
	})
}

// isFuncDirective reports whether a comment is a hotpath/coldpath
// function directive (exact prefix followed by end-of-comment or space).
func isFuncDirective(text string) bool {
	for _, prefix := range []string{HotpathPrefix, ColdpathPrefix} {
		if rest, ok := strings.CutPrefix(text, prefix); ok {
			if rest == "" || strings.HasPrefix(rest, " ") {
				return true
			}
		}
	}
	return false
}

// collectAllows scans one file's comments for allow annotations. A valid
// annotation names a rule and gives a non-empty reason; anything else
// under the nslint: prefix — other than the function directives handled
// by the call graph — is reported so that a typo cannot silently disable
// enforcement.
func collectAllows(fset *token.FileSet, f *ast.File, allows *[]*AllowSite, diags *[]Diagnostic) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, "//nslint:") {
				continue
			}
			if isFuncDirective(text) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest, ok := strings.CutPrefix(text, AllowPrefix)
			if !ok {
				*diags = append(*diags, Diagnostic{
					Rule: "nslint", Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Message: fmt.Sprintf("unrecognized nslint directive %q (supported: %s <rule> <reason>, %s, %s <reason>)", text, AllowPrefix, HotpathPrefix, ColdpathPrefix),
				})
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				*diags = append(*diags, Diagnostic{
					Rule: "nslint", Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
					Message: fmt.Sprintf("allow annotation needs a rule and a reason: %s <rule> <reason>", AllowPrefix),
				})
				continue
			}
			*allows = append(*allows, &AllowSite{
				File:   pos.Filename,
				Line:   pos.Line,
				Rule:   fields[0],
				Reason: strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0])),
			})
		}
	}
}
