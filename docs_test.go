package netsample_test

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"strings"
	"testing"
)

// The rot check: what the prose, the CI workflow and BENCH.json name
// must exist in the tree, so a deletion or rename cannot leave a gate
// selecting nothing or a document citing a file nobody can open.
// benchmarks/README.md belongs to the frozen benchmark contract and is
// not read here.

var (
	rotDocs      = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}
	testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	testFuncName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
	quotedName   = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Z][^`]*)`")
	treePath     = regexp.MustCompile(`\b(?:internal|cmd|examples)/[\w./-]+`)
	dataFile     = regexp.MustCompile(`[\w./-]+\.(?:txt|json|csv)\b`)
	goTestArg    = regexp.MustCompile(`-(?:bench|run|fuzz)[ =](?:'([^']*)'|"([^"]*)"|(\S+))`)
	yamlComment  = regexp.MustCompile(`(?m)#.*$`)
	shellVar     = regexp.MustCompile(`\$[A-Za-z{]`)
)

// treeIndex is what the checked names resolve against.
type treeIndex struct {
	funcs map[string]bool // Test/Benchmark/Fuzz functions of every _test.go
	bases map[string]bool // base name of every file
}

func indexTree(t *testing.T) treeIndex {
	t.Helper()
	ix := treeIndex{funcs: make(map[string]bool), bases: make(map[string]bool)}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		ix.bases[d.Name()] = true
		if strings.HasSuffix(path, "_test.go") && !strings.Contains(path, "testdata") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFuncDecl.FindAllSubmatch(src, -1) {
				ix.funcs[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// hasFunc resolves a test name, ignoring any /subtest suffix.
func (ix treeIndex) hasFunc(name string) bool {
	name, _, _ = strings.Cut(name, "/")
	return ix.funcs[name]
}

// hasPath resolves an internal/, cmd/ or examples/ path, accepting a
// package-qualified identifier (internal/core.Replicate) for its package.
func hasPath(p string) bool {
	p = strings.TrimRight(p, "./-")
	if _, err := os.Stat(p); err == nil {
		return true
	}
	if dot := strings.LastIndex(p, "."); dot > strings.LastIndex(p, "/") {
		if fi, err := os.Stat(p[:dot]); err == nil && fi.IsDir() {
			return true
		}
	}
	return false
}

// enumerate lists the finite set of strings a -bench/-run/-fuzz regexp
// can match when it is built from literals, groups and alternation only.
func enumerate(re *syntax.Regexp) ([]string, error) {
	switch re.Op {
	case syntax.OpLiteral:
		return []string{string(re.Rune)}, nil
	case syntax.OpBeginText, syntax.OpEndText, syntax.OpBeginLine, syntax.OpEndLine, syntax.OpEmptyMatch:
		return []string{""}, nil
	case syntax.OpCapture:
		return enumerate(re.Sub[0])
	case syntax.OpAlternate:
		var out []string
		for _, sub := range re.Sub {
			alts, err := enumerate(sub)
			if err != nil {
				return nil, err
			}
			out = append(out, alts...)
		}
		return out, nil
	case syntax.OpConcat:
		out := []string{""}
		for _, sub := range re.Sub {
			alts, err := enumerate(sub)
			if err != nil {
				return nil, err
			}
			var next []string
			for _, prefix := range out {
				for _, alt := range alts {
					next = append(next, prefix+alt)
				}
			}
			out = next
		}
		return out, nil
	}
	return nil, fmt.Errorf("operator %v is not enumerable", re.Op)
}

func TestDocsNameWhatExists(t *testing.T) {
	ix := indexTree(t)
	for _, doc := range rotDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range quotedName.FindAllSubmatch(text, -1) {
			if name := string(m[1]); !ix.hasFunc(name) {
				t.Errorf("%s names `%s`, which no _test.go declares", doc, name)
			}
		}
		for _, p := range treePath.FindAll(text, -1) {
			if !hasPath(string(p)) {
				t.Errorf("%s names %s, which is not in the tree", doc, p)
			}
		}
		for _, f := range dataFile.FindAll(text, -1) {
			if name := string(f); !ix.bases[filepath.Base(name)] {
				t.Errorf("%s names %s, and the tree holds no file of that name", doc, name)
			}
		}
	}
}

func TestCINamesWhatExists(t *testing.T) {
	ix := indexTree(t)
	const workflow = ".github/workflows/ci.yml"
	data, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, m := range goTestArg.FindAllStringSubmatch(yamlComment.ReplaceAllString(text, ""), -1) {
		arg := m[1] + m[2] + m[3]
		if shellVar.MatchString(arg) {
			continue // the names the variable takes are checked below
		}
		re, err := syntax.Parse(arg, syntax.Perl)
		if err != nil {
			t.Errorf("%s: %q: %v", workflow, arg, err)
			continue
		}
		names, err := enumerate(re)
		if err != nil {
			t.Errorf("%s: %q: %v", workflow, arg, err)
			continue
		}
		for _, name := range names {
			if !ix.hasFunc(name) {
				t.Errorf("%s selects %q with %q, which no _test.go declares", workflow, name, arg)
			}
		}
	}
	// Everything else: loop lists and the comments that say how a corpus
	// or golden is regenerated.
	for _, name := range testFuncName.FindAllString(goTestArg.ReplaceAllString(text, ""), -1) {
		if !ix.hasFunc(name) {
			t.Errorf("%s names %s, which no _test.go declares", workflow, name)
		}
	}
}

func TestBenchJSONRowsResolve(t *testing.T) {
	ix := indexTree(t)
	data, err := os.ReadFile("BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Benchmarks []struct {
			Name string `json:"name"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Benchmarks) == 0 {
		t.Fatal("BENCH.json has no rows")
	}
	for _, b := range file.Benchmarks {
		if !ix.hasFunc(b.Name) {
			t.Errorf("BENCH.json row %s has no benchmark function", b.Name)
		}
	}
}

var (
	designCite    = regexp.MustCompile(`DESIGN(?:\.md)? §\d+(?:(?:,| and| or) §\d+)*`)
	sectionNumber = regexp.MustCompile(`§(\d+)`)
	designHeading = regexp.MustCompile(`(?m)^## (\d+)\. `)
)

// TestDesignSectionsExist holds every "DESIGN.md §N" citation (and
// "DESIGN.md §N and §M" list) in the Go sources, the maintained
// documents and the CI workflow to a "## N." heading of DESIGN.md, so
// renumbering the specification cannot leave a comment pointing at the
// wrong section. CHANGES.md is history: it cites the sections as they
// were numbered then, and is not read.
func TestDesignSectionsExist(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := make(map[string]bool)
	for _, m := range designHeading.FindAllSubmatch(design, -1) {
		sections[string(m[1])] = true
	}
	files := append([]string{"ROADMAP.md", ".github/workflows/ci.yml"}, rotDocs...)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designCite.FindAll(text, -1) {
			for _, n := range sectionNumber.FindAllSubmatch(m, -1) {
				cited++
				if !sections[string(n[1])] {
					t.Errorf("%s cites %q: DESIGN.md has no section %s", path, m, n[1])
				}
			}
		}
	}
	if cited == 0 {
		t.Error("no DESIGN.md section citation found; the pattern no longer matches how they are written")
	}
}

// TestDesignWithinCeiling caps DESIGN.md at its current size, so new
// design prose replaces a paragraph instead of appending one, and
// history goes to CHANGES.md; lower the ceiling whenever the file
// shrinks.
func TestDesignWithinCeiling(t *testing.T) {
	const ceiling = 35_347
	fi, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > ceiling {
		t.Errorf("DESIGN.md is %d bytes, over the %d-byte ceiling", fi.Size(), ceiling)
	}
}
