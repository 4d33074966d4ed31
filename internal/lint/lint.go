// Package lint is doscope's custom static-analysis suite: five
// go/analysis analyzers that machine-check the contracts no compiler
// sees. They are the successors of the Makefile greps and the review
// checklist that used to guard these invariants by hand:
//
//   - scratchescape — the per-iteration scratch *Event yielded by
//     Iter/IterByStart must not outlive its callback.
//   - readpurity — nothing reachable from a query terminal in
//     internal/attack may lock the writer mutex, call a mutator, or
//     load the published view more than once per execution (PR 5).
//   - errsentinel — errors on the federation/httpapi path must wrap
//     sentinels with %w so errors.Is classification keeps working
//     (PR 7's ok/failed/skipped split).
//   - nodeprecated — type-aware quarantine of the deprecated
//     (*attack.Store).Events/ByTarget snapshot API.
//   - ctxflow — attack.Queryable implementations must use the caller's
//     context, and cancellable paths must not block on context-blind
//     sleeps.
//
// Run them via cmd/dosvet (standalone, or as `go vet -vettool=`), or
// `make lint`. A finding the analyzer cannot see around is suppressed
// with a comment on the flagged line or the line above:
//
//	//dosvet:ignore readpurity <why this is safe>
//
// naming one or more comma-separated analyzers (or "all"). The reason
// is free-form but expected — a bare ignore reads as an unexplained
// hole in the contract.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers is the full dosvet suite, in the order cmd/dosvet runs it.
var Analyzers = []*analysis.Analyzer{
	ScratchEscape,
	ReadPurity,
	ErrSentinel,
	NoDeprecated,
	CtxFlow,
}

// Package is one typechecked package, ready for analysis: what
// cmd/dosvet builds from a go vet unit and linttest from a corpus.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Sizes types.Sizes
}

// Check parses the named files into fset and typechecks them as
// package path under conf, recording every types.Info map.
func Check(conf *types.Config, fset *token.FileSet, path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Types: pkg, Info: info, Sizes: conf.Sizes}, nil
}

// Run runs a over p and returns its diagnostics in report order. It
// refuses an analyzer that declares Requires or FactTypes: neither
// caller keeps prerequisite results or facts between packages.
func (p *Package) Run(a *analysis.Analyzer) ([]analysis.Diagnostic, error) {
	if len(a.Requires) > 0 || len(a.FactTypes) > 0 {
		return nil, fmt.Errorf("analyzer %s declares Requires or FactTypes, which this runner does not support", a.Name)
	}
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       p.Fset,
		Files:      p.Files,
		Pkg:        p.Types,
		TypesInfo:  p.Info,
		TypesSizes: p.Sizes,
		Report:     func(d analysis.Diagnostic) { diags = append(diags, d) },
		ReadFile:   os.ReadFile,
	}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
	}
	return diags, nil
}

// reporter wraps pass.Reportf with //dosvet:ignore handling: a
// directive comment suppresses this analyzer's findings on its own
// line and on the line immediately below (so it works both trailing
// and as a lead-in comment).
type reporter struct {
	pass    *analysis.Pass
	ignored map[string]map[int]bool // filename -> suppressed line
}

func newReporter(pass *analysis.Pass) *reporter {
	r := &reporter{pass: pass, ignored: make(map[string]map[int]bool)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "dosvet:ignore")
				if !ok {
					continue
				}
				// The first field is the comma-separated analyzer
				// list; everything after it is the human reason.
				names := ""
				if fields := strings.Fields(rest); len(fields) > 0 {
					names = fields[0]
				}
				if names != "" && names != "all" &&
					!slices.Contains(strings.Split(names, ","), pass.Analyzer.Name) {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				lines := r.ignored[p.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					r.ignored[p.Filename] = lines
				}
				lines[p.Line] = true
				lines[p.Line+1] = true
			}
		}
	}
	return r
}

func (r *reporter) reportf(pos token.Pos, format string, args ...any) {
	p := r.pass.Fset.Position(pos)
	if lines, ok := r.ignored[p.Filename]; ok && lines[p.Line] {
		return
	}
	r.pass.Reportf(pos, format, args...)
}

// inTestFile reports whether pos lives in a _test.go file.
func inTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// namedOf unwraps aliases and one level of pointer to the named type
// underneath, or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedType reports whether t (through aliases and one pointer) is a
// named type typeName declared in a package *named* pkgName. Matching
// the package name rather than its import path keeps the analyzers
// honest on both the real tree (doscope/internal/attack) and the
// self-contained testdata corpora (lintdata/attack).
func isNamedType(t types.Type, pkgName string, typeNames ...string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && slices.Contains(typeNames, n.Obj().Name())
}

// isEventPtr reports whether t is *attack.Event.
func isEventPtr(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return isNamedType(p.Elem(), "attack", "Event")
	}
	return false
}

// calleeFunc resolves the static callee of call, or nil for calls of
// function values, builtins, and conversions. An explicit
// instantiation f[T](x) resolves to the generic f.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := pass.TypesInfo.Selections[sel]; ok {
			fn, _ := s.Obj().(*types.Func)
			return fn
		}
		fun = sel.Sel // qualified identifier
	}
	id, _ := fun.(*ast.Ident)
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// recvNamed returns the package and type name of fn's receiver's named
// type ("", "" for functions and unusable receivers).
func recvNamed(fn *types.Func) (pkgName, typeName string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	n := namedOf(sig.Recv().Type())
	if n == nil || n.Obj().Pkg() == nil {
		return "", ""
	}
	return n.Obj().Pkg().Name(), n.Obj().Name()
}

// isPkgFunc reports whether fn is the function pkgPath.name (by import
// path, for stdlib callees like fmt.Errorf and time.Sleep).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// canAlias reports whether a value of type t can carry a reference to
// shared storage (so assigning it propagates aliasing). Scalars and
// strings cannot; anything with a pointer, slice, map, chan, func or
// interface inside can.
func canAlias(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return t != nil // deep recursion: assume aliasing, stay sound
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if canAlias(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return canAlias(u.Elem(), depth+1)
	default:
		return false
	}
}

// rootIdent unwraps index, selector, star and paren expressions to the
// base identifier being written through (m in m[k].f), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}
