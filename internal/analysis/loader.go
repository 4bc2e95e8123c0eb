package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked module package.
type Package struct {
	Path  string // import path, e.g. netsample/internal/dist
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader discovers, parses and type-checks packages of one Go module
// using only the standard library: module-internal imports are resolved
// by the loader itself from source, and everything else (the standard
// library) is delegated to go/importer's source importer. The module
// must be dependency-free beyond the standard library, which this one is.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader creates a loader rooted at dir or any of its parents that
// contains go.mod.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := moduleName(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// findModuleRoot walks upward from dir until it sees go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// moduleName extracts the module path from a go.mod file.
func moduleName(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			name := strings.TrimSpace(rest)
			if name != "" {
				return strings.Trim(name, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load resolves each pattern to module packages and returns them parsed
// and type-checked, deduplicated and sorted by import path. Supported
// patterns: "./..." for the whole module, "./dir/..." for a subtree,
// "./dir" (or a bare or module-qualified path) for one package.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	all, err := l.modulePackageDirs()
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool)
	for _, pat := range patterns {
		ip, subtree := l.normalizePattern(pat)
		matched := false
		for path := range all {
			if path == ip || (subtree && (ip == l.ModulePath || strings.HasPrefix(path, ip+"/"))) {
				want[path] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("analysis: pattern %q matched no packages", pat)
		}
	}
	paths := make([]string, 0, len(want))
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.loadPackage(p, all[p])
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// normalizePattern converts a CLI pattern into an import path plus a
// subtree flag.
func (l *Loader) normalizePattern(pat string) (string, bool) {
	subtree := false
	if pat == "all" {
		return l.ModulePath, true
	}
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		subtree = true
		pat = rest
	}
	pat = strings.TrimPrefix(pat, "./")
	pat = strings.TrimSuffix(pat, "/")
	switch {
	case pat == "" || pat == ".":
		return l.ModulePath, subtree
	case pat == l.ModulePath || strings.HasPrefix(pat, l.ModulePath+"/"):
		return pat, subtree
	default:
		return l.ModulePath + "/" + pat, subtree
	}
}

// modulePackageDirs walks the module and maps each package import path
// to its directory. Hidden directories, testdata and underscore-prefixed
// directories are skipped, mirroring the go tool's convention.
func (l *Loader) modulePackageDirs() (map[string]string, error) {
	out := make(map[string]string)
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot &&
			(name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		srcs, err := goSources(path)
		if err != nil {
			return err
		}
		if len(srcs) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleRoot, path)
		if err != nil {
			return err
		}
		ip := l.ModulePath
		if rel != "." {
			ip = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		out[ip] = path
		return nil
	})
	return out, err
}

// goSources lists the non-test .go files of dir that build on the
// current platform: build-constrained files (//go:build lines and
// filename-implied GOOS/GOARCH suffixes like _linux.go) are filtered
// through go/build's default context, exactly as the go tool selects
// them — otherwise a platform pair such as mmap_linux.go and
// mmap_fallback.go would type-check as a redeclaration.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, fmt.Errorf("analysis: match %s: %w", filepath.Join(dir, name), err)
		}
		if !match {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	sort.Strings(out)
	return out, nil
}

// loadPackage parses and type-checks one package, memoized by import
// path. Module-internal imports recurse through the loader itself.
func (l *Loader) loadPackage(importPath, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	srcs, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(srcs))
	for _, src := range srcs {
		f, err := parser.ParseFile(l.fset, src, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", src, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-check %s: %v", importPath, typeErrs[0])
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// loaderImporter adapts Loader to types.Importer: module-internal paths
// are loaded from source by the loader, everything else falls through to
// the standard library source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
		pkg, err := l.loadPackage(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
