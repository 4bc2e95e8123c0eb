package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// loadCorpus loads one testdata/src corpus and returns its packages with
// the module path to run the rules under. A flat corpus is one package,
// given its natural import path under internal/ so the scoped rules
// apply. A corpus with subdirectories is a module of its own, rooted at
// the corpus directory: the whole-module rule needs mains, a facade and
// internal packages to tell apart.
func loadCorpus(t *testing.T, loader *Loader, name string) ([]*Package, string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	ip := loader.ModulePath + "/internal/analysis/testdata/src/" + name
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := &Loader{ModuleRoot: dir, ModulePath: ip, fset: loader.fset, std: loader.std,
			pkgs: make(map[string]*Package), loading: make(map[string]bool)}
		pkgs, err := sub.Load("./...")
		if err != nil {
			t.Fatalf("load corpus module %s: %v", name, err)
		}
		return pkgs, ip
	}
	pkg, err := loader.loadPackage(ip, dir)
	if err != nil {
		t.Fatalf("load corpus %s: %v", name, err)
	}
	return []*Package{pkg}, loader.ModulePath
}

// wantKey locates one expectation site.
type wantKey struct {
	file string
	line int
}

// parseWants extracts `// want "re"` / `// want `+"`re`"+“ expectation
// comments from the packages' files. Several expectations may share one
// line.
func parseWants(t *testing.T, pkgs []*Package) map[wantKey][]*regexp.Regexp {
	t.Helper()
	out := make(map[wantKey][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "want ")
					if !strings.HasPrefix(c.Text, "//") || idx < 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rest := strings.TrimSpace(c.Text[idx+len("want "):])
					for rest != "" {
						var quote byte = rest[0]
						if quote != '"' && quote != '`' {
							t.Fatalf("%s:%d: malformed want expectation %q", pos.Filename, pos.Line, c.Text)
						}
						end := strings.IndexByte(rest[1:], quote)
						if end < 0 {
							t.Fatalf("%s:%d: unterminated want expectation %q", pos.Filename, pos.Line, c.Text)
						}
						re, err := regexp.Compile(rest[1 : 1+end])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
						}
						key := wantKey{pos.Filename, pos.Line}
						out[key] = append(out[key], re)
						rest = strings.TrimSpace(rest[2+end:])
					}
				}
			}
		}
	}
	return out
}

// retiredRules maps each retired rule to the rule that replaced it.
var retiredRules = map[string]string{
	"atomicalign": "typedatomic",
	"atomicfield": "typedatomic",
}

// corpusRules returns the rules to run over one corpus directory: the
// rule the directory is named after, or the full set for the "allow"
// corpus, which tests the suppression machinery itself. Scoping keeps
// each corpus focused — the rngshare corpus's bare `go work(rng)` is
// that rule's point, not a waitstall specimen. A corpus named after a
// retired rule runs under the rule that replaced it, which must still
// catch every case the old one did.
func corpusRules(t *testing.T, modulePath, name string) []Rule {
	t.Helper()
	all := DefaultRules(modulePath)
	if name == "allow" {
		return all
	}
	if successor, ok := retiredRules[name]; ok {
		name = successor
	}
	for _, r := range all {
		if r.Name() == name {
			return []Rule{r}
		}
	}
	t.Fatalf("corpus directory %q does not name a rule", name)
	return nil
}

// TestGoldenCorpus runs each corpus package under its directory's rule
// and checks the diagnostics against the `// want` expectations: every
// expectation must be matched on its line, and no diagnostic may appear
// without one.
func TestGoldenCorpus(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty corpus")
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			pkgs, modulePath := loadCorpus(t, loader, e.Name())
			wants := parseWants(t, pkgs)
			diags := Run(pkgs, corpusRules(t, modulePath, e.Name()))
			matched := make(map[wantKey][]bool)
			for key, res := range wants {
				matched[key] = make([]bool, len(res))
			}
		diagLoop:
			for _, d := range diags {
				key := wantKey{d.File, d.Line}
				for i, re := range wants[key] {
					if !matched[key][i] && re.MatchString(d.Message) {
						matched[key][i] = true
						continue diagLoop
					}
				}
				t.Errorf("unexpected diagnostic: %s", d)
			}
			for key, res := range wants {
				for i, ok := range matched[key] {
					if !ok {
						t.Errorf("%s:%d: expected diagnostic matching %q was not reported",
							key.file, key.line, wants[key][i])
					}
				}
				_ = res
			}
		})
	}
}

// writeTempPkg materializes one corpus file in a temp dir and loads it.
func writeTempPkg(t *testing.T, loader *Loader, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.loadPackage(loader.ModulePath+"/internal/tmpcorpus", dir)
	if err != nil {
		t.Fatalf("load temp corpus: %v", err)
	}
	return pkg
}

// TestAllowWithoutReasonIsReported checks that a reasonless allow
// annotation is itself a finding and suppresses nothing.
func TestAllowWithoutReasonIsReported(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg := writeTempPkg(t, loader, `package tmpcorpus

func Eq(a, b float64) bool {
	//nslint:allow floateq
	return a == b
}
`)
	diags := Run([]*Package{pkg}, DefaultRules(loader.ModulePath))
	var sawBadAllow, sawFloatEq bool
	for _, d := range diags {
		switch d.Rule {
		case "nslint":
			sawBadAllow = true
		case "floateq":
			sawFloatEq = true
		}
	}
	if !sawBadAllow {
		t.Error("reasonless allow annotation was not reported")
	}
	if !sawFloatEq {
		t.Error("reasonless allow annotation suppressed the floateq finding")
	}
}

// TestUnknownDirectiveIsReported checks that a typoed nslint directive
// cannot silently disable enforcement.
func TestUnknownDirectiveIsReported(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg := writeTempPkg(t, loader, `package tmpcorpus

func Eq(a, b float64) bool {
	//nslint:alow floateq typo in the directive name
	return a == b
}
`)
	diags := Run([]*Package{pkg}, DefaultRules(loader.ModulePath))
	var sawDirective bool
	for _, d := range diags {
		if d.Rule == "nslint" && strings.Contains(d.Message, "unrecognized nslint directive") {
			sawDirective = true
		}
	}
	if !sawDirective {
		t.Errorf("typoed directive was not reported; got %v", diags)
	}
}

// TestStaleAllowIsAudited checks the inventory the module's
// suppression-hygiene test fails on: in the unreached corpus the allow
// on a declaration nothing reaches is used, and the one left on a
// reached declaration is stale.
func TestStaleAllowIsAudited(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, modulePath := loadCorpus(t, loader, "unreached")
	_, allows := NewModule(pkgs).RunAudit(corpusRules(t, modulePath, "unreached"))
	used := make(map[string]bool)
	for _, a := range allows {
		used[filepath.Base(a.File)] = a.Used
	}
	if want := map[string]bool{"bad.go": true, "good.go": false}; !reflect.DeepEqual(used, want) {
		t.Errorf("allow sites used = %v, want %v", used, want)
	}
}

// TestDiagnosticString pins the rendered diagnostic format the CLI and
// CI logs rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "noclock", File: "x/y.go", Line: 3, Col: 7, Message: "m"}
	want := "x/y.go:3:7: m [noclock]"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if fmt.Sprint(d) != want {
		t.Errorf("Sprint mismatch")
	}
}

// TestPatternNormalization pins the CLI pattern grammar.
func TestPatternNormalization(t *testing.T) {
	l := &Loader{ModulePath: "netsample"}
	cases := []struct {
		pat     string
		ip      string
		subtree bool
	}{
		{"./...", "netsample", true},
		{".", "netsample", false},
		{"all", "netsample", true},
		{"./internal/dist", "netsample/internal/dist", false},
		{"internal/dist", "netsample/internal/dist", false},
		{"netsample/internal/dist", "netsample/internal/dist", false},
		{"./internal/...", "netsample/internal", true},
	}
	for _, c := range cases {
		ip, subtree := l.normalizePattern(c.pat)
		if ip != c.ip || subtree != c.subtree {
			t.Errorf("normalizePattern(%q) = (%q, %v), want (%q, %v)",
				c.pat, ip, subtree, c.ip, c.subtree)
		}
	}
}
