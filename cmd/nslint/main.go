// Command nslint runs the netsample static-analysis rule set over module
// packages. It enforces the determinism invariants the reproduction
// depends on — no stdlib randomness outside internal/dist, no naked
// wall-clock reads, no cross-goroutine RNG sharing, no exact float
// comparisons, no silently dropped module errors — and, since v2, the
// concurrency and hot-path invariants of the streaming pipeline: shared
// words are typed atomics, never sync/atomic's functions on a plain
// variable (typedatomic), goroutines must be tied to a shutdown seam
// (waitstall), no blocking operation may run under a held mutex
// (mutexhold), and the transitive closure of every
// `//nslint:hotpath` function must be free of allocating constructs
// (hotalloc) — the static twin of the allocation-budget tests. One rule
// guards a single file: only internal/trace/layout.go may import unsafe
// (nounsafe). One looks at the module as a whole, and only when the
// patterns load all of it: every package-level declaration must be
// reachable from a main, an init, a package-level initialiser or the
// root facade's exported API (unreached).
//
// Usage:
//
//	nslint [-json] [-rules list] pattern...
//	nslint -hotpaths pattern...
//
// Patterns follow go-tool convention: ./... for the whole module,
// ./internal/... for a subtree, ./internal/dist for one package.
// -hotpaths prints, instead of findings, the hot-path closure the
// hotalloc rule enforces: every function reachable from a
// `//nslint:hotpath` root through static calls and interface dispatch,
// with the root and the call edge that pulled it in.
// Exit status is 0 when clean, 1 when findings were reported, 2 on a
// usage or load error. Suppress a finding in place with
// `//nslint:allow <rule> <reason>` on the offending line or the line
// above; exclude a function from the hot closure with
// `//nslint:coldpath <reason>` on its declaration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"netsample/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("nslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	ruleList := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	hotpaths := fs.Bool("hotpaths", false, "print the //nslint:hotpath transitive closure instead of findings")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: nslint [-json] [-rules list] [-hotpaths] pattern...\n\nrules:\n")
		for _, r := range analysis.DefaultRules("netsample") {
			fmt.Fprintf(stderr, "  %-10s %s\n", r.Name(), r.Doc())
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "nslint: %v\n", err)
		return 2
	}
	rules := analysis.DefaultRules(loader.ModulePath)
	if *ruleList != "" {
		rules, err = selectRules(rules, *ruleList)
		if err != nil {
			fmt.Fprintf(stderr, "nslint: %v\n", err)
			return 2
		}
	}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "nslint: %v\n", err)
		return 2
	}
	if *hotpaths {
		printHotpaths(stdout, analysis.NewModule(pkgs))
		return 0
	}
	diags := analysis.Run(pkgs, rules)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "nslint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, rel(loader.ModuleRoot, d))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// printHotpaths renders the hot-path closure, one function per line,
// in the deterministic BFS order of HotClosure: roots flush left, every
// pulled-in function indented with the root it serves and the call edge
// that discovered it.
func printHotpaths(stdout *os.File, m *analysis.Module) {
	entries := m.HotClosure()
	if len(entries) == 0 {
		fmt.Fprintln(stdout, "no //nslint:hotpath roots in the loaded packages")
		return
	}
	for _, e := range entries {
		if e.Via == nil {
			fmt.Fprintf(stdout, "%s (root)\n", e.Func.FullName())
			continue
		}
		fmt.Fprintf(stdout, "  %s (from %s via %s)\n",
			e.Func.FullName(), e.Root.Obj.Name(), e.Via.Obj.Name())
	}
}

// selectRules filters the rule set down to the named subset.
func selectRules(all []analysis.Rule, list string) ([]analysis.Rule, error) {
	byName := make(map[string]analysis.Rule, len(all))
	for _, r := range all {
		byName[r.Name()] = r
	}
	var out []analysis.Rule
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		r, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q", name)
		}
		out = append(out, r)
	}
	return out, nil
}

// rel shortens absolute file paths to module-relative ones for readable
// terminal output.
func rel(root string, d analysis.Diagnostic) string {
	if strings.HasPrefix(d.File, root+string(os.PathSeparator)) {
		d.File = d.File[len(root)+1:]
	}
	return d.String()
}
