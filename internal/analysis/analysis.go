// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis driver model, sufficient to host the
// repo-specific analyzers under internal/analysis/... without pulling
// x/tools into the module. An Analyzer inspects one type-checked
// package at a time through a Pass and reports Diagnostics; drivers
// (cmd/repro-vet, the analysistest harness) assemble passes from loaded
// packages and collect the findings.
//
// Findings can be silenced at a specific site with a suppression
// comment on the flagged line or the line directly above it:
//
//	//repro:vet ignore <analyzer> -- reason
//
// The reason is free text but required by convention; see
// docs/static-analysis.md.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects the package presented by
// the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in output and suppression comments;
	// lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant enforced and
	// why it matters.
	Doc string
	// Run performs the check. Diagnostics are reported through the
	// pass; the error return is for operational failures only.
	Run func(*Pass) error
}

// Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the conventional file:line:col: message (analyzer) form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Inspect walks every file of the pass in source order, calling fn for
// each node; fn returning false prunes the subtree (ast.Inspect
// semantics).
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// suppressionMarker introduces a site suppression comment.
const suppressionMarker = "repro:vet ignore"

// suppressedLines extracts, per file name, the set of line numbers on
// which a finding by the named analyzer is suppressed. A suppression
// comment covers its own line and the line below it, so both trailing
// comments and whole-line comments above the flagged statement work.
func suppressedLines(fset *token.FileSet, files []*ast.File, analyzer string) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
				if !strings.HasPrefix(text, suppressionMarker) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, suppressionMarker))
				name, _, _ := strings.Cut(rest, " ")
				name = strings.TrimSuffix(name, ",")
				if name != analyzer && name != "all" {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					out[pos.Filename] = lines
				}
				lines[pos.Line] = true
				lines[pos.Line+1] = true
			}
		}
	}
	return out
}

// Unit is the input a driver supplies per package: the parsed syntax
// plus type information, as produced by internal/analysis/load.
type Unit struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Run applies each analyzer to the unit and returns the surviving
// findings, suppression comments applied, sorted by position.
func Run(u Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.TypesInfo,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, u.Pkg.Path(), err)
		}
		if len(pass.diagnostics) == 0 {
			continue
		}
		supp := suppressedLines(u.Fset, u.Files, a.Name)
		for _, d := range pass.diagnostics {
			if supp[d.Pos.Filename][d.Pos.Line] {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// Helpers shared by the repo's analyzers.

// NamedType unwraps pointers and aliases and returns the named type
// beneath, or nil.
func NamedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// IsPkgType reports whether t (through pointers/aliases) is the named
// type name declared in a package whose import path ends with
// pathSuffix (e.g. "internal/core"). Matching by suffix keeps the
// analyzers applicable to both the real packages and the analysistest
// fixture stubs, which mirror the real import paths under testdata/src.
func IsPkgType(t types.Type, pathSuffix, name string) bool {
	n := NamedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && HasPathSuffix(n.Obj().Pkg().Path(), pathSuffix)
}

// CalleeFunc resolves the called function/method of a CallExpr, or nil
// (e.g. for calls of function-typed values or conversions).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// IsPkgFunc reports whether call invokes the package-level function
// name from a package whose path ends with pathSuffix.
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pathSuffix, name string) bool {
	f := CalleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Name() != name {
		return false
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	return HasPathSuffix(f.Pkg().Path(), pathSuffix)
}

// HasPathSuffix reports whether an import path is, or ends with a
// path-separated, suffix — the matching rule all repo analyzers use so
// they apply equally to the real packages and to fixture stubs that
// mirror the import paths under testdata/src.
func HasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
