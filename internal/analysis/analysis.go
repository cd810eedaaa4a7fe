// Package analysis is the Whirlpool analyzer suite and the small
// framework it runs on. The framework mirrors the shape of
// golang.org/x/tools/go/analysis — Analyzer, Pass, Diagnostic — on the
// standard library's go/ast and go/types, so the module stays
// dependency-free; its one driver is the go vet -vettool protocol
// (unitchecker.go, run by cmd/whirlpool-lint).
//
// An analyzer is here only because it is the only check — not go vet,
// not go test, not the race detector — that catches some bug class
// reintroduced into the tree: DESIGN.md's static-analysis section
// records the mutation audit that decided it. Deliberate exceptions are
// annotated in source with a `// +whirllint:<tag>` line in the doc
// comment of the enclosing function; each analyzer documents the tag it
// honours.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the analyzer's one-line summary.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Reportf.
	Run func(*Pass)
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// annotationPrefix introduces a lint annotation inside a doc comment:
// `// +whirllint:locked`, `// +whirllint:busywait`.
const annotationPrefix = "+whirllint:"

// hasAnnotation reports whether the function's doc comment carries the
// annotation `+whirllint:<tag>`, alone or followed by a reason on the
// same line (`// +whirllint:busywait the probe ends at an empty slot`).
func hasAnnotation(fn *ast.FuncDecl, tag string) bool {
	if fn == nil || fn.Doc == nil {
		return false
	}
	want := annotationPrefix + tag
	for _, c := range fn.Doc.List {
		line := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if line == want || strings.HasPrefix(line, want+" ") {
			return true
		}
	}
	return false
}

// funcDecls yields every function declaration in the pass's files.
func funcDecls(pass *Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				out = append(out, fd)
			}
		}
	}
	return out
}

// isNamedType reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
