package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"sort"
)

// This file is the suite's one driver: the `go vet -vettool` protocol,
// mirroring golang.org/x/tools/go/analysis/unitchecker. The go command
// runs the tool once per package — test variants and standard-library
// dependencies included — with a JSON config naming the package's
// sources and the compiled export data of its imports, so no source
// type-checking of dependencies is needed. Every analyzer looks at one
// package alone, so the tool hands no facts between units: it writes
// each unit's .vetx file empty, as the go command requires, and reports
// diagnostics on stderr.

// vetConfig is the part of cmd/go's vet config the tool reads.
type vetConfig struct {
	Compiler                  string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunVetTool analyzes the single package described by the config file
// and returns the process exit code: 0 clean, 1 operational failure,
// 2 diagnostics reported.
func RunVetTool(cfgPath string, analyzers []*Analyzer) int {
	diags, err := vetUnit(cfgPath, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// vetUnit analyzes one unit and returns its diagnostics sorted by
// position (none for a unit the go command runs for facts only).
func vetUnit(cfgPath string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %v", cfgPath, err)
	}
	// The go command requires the facts file.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, err
		}
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{Importer: imp, Sizes: types.SizesFor(compiler, runtime.GOARCH), FakeImportC: true}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, err
	}
	if cfg.VetxOnly {
		return nil, nil
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, diags: &diags})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}
