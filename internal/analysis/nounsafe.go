package analysis

import "path/filepath"

// noUnsafeRule confines package unsafe to one file of the module:
// internal/trace/layout.go, which states — with compile-time assertions
// — that an NSTR record and a trace.Packet are the same bytes and wraps
// the two slice-view conversions that rest on it. Everything else
// reaches the identity through those helpers, so there is one place to
// audit and one place to fall back from; a second importer would be a
// second place trusting a layout nothing checks.
type noUnsafeRule struct{ modulePath string }

func (r *noUnsafeRule) Name() string { return "nounsafe" }

func (r *noUnsafeRule) Doc() string {
	return "forbid importing unsafe anywhere in the module but internal/trace/layout.go, " +
		"the one statement of the record/packet layout identity"
}

func (r *noUnsafeRule) Check(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		name := pass.Pkg.Fset.Position(f.Pos()).Filename
		if pass.Pkg.Path == r.modulePath+"/internal/trace" && filepath.Base(name) == "layout.go" {
			continue
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` {
				pass.Reportf(imp.Pos(),
					"import of unsafe outside internal/trace/layout.go; use the layout helpers there or a portable codec")
			}
		}
	}
}
