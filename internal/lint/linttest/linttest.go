// Package linttest is an offline analysistest equivalent: it loads
// golden corpora from a GOPATH-style testdata tree, typechecks them
// with the source importer (stdlib from GOROOT, fake dependencies such
// as lintdata/attack from the same tree), runs one analyzer per
// package through lint's pass runner, and diffs its diagnostics
// against `// want "regexp"` comments.
//
// It exists because the module carries only the go/analysis package
// of x/tools (under third_party/), not analysistest or go/packages;
// this harness reimplements the slice of analysistest the suite needs
// with no network and no module downloads.
package linttest

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"golang.org/x/tools/go/analysis"

	"doscope/internal/lint"
)

// Run loads each pkgpath under dir and checks a's diagnostics against
// the corpus's // want comments. A package without want comments is a
// negative corpus: the analyzer must stay silent on it.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	ld := newLoader(t, dir)
	for _, path := range pkgpaths {
		p := ld.load(path)
		diags, err := p.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		findings := make([]Finding, len(diags))
		for i, d := range diags {
			findings[i] = Finding{Pos: ld.fset.Position(d.Pos), Message: d.Message}
		}
		CheckWants(t, ld.fset, p.Files, findings)
	}
}

type loader struct {
	t    *testing.T
	dir  string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*lint.Package
}

func newLoader(t *testing.T, dir string) *loader {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	return &loader{t: t, dir: dir, fset: fset, std: std, pkgs: map[string]*lint.Package{}}
}

func (ld *loader) Import(path string) (*types.Package, error) {
	if p, ok := ld.pkgs[path]; ok {
		return p.Types, nil
	}
	if fi, err := os.Stat(filepath.Join(ld.dir, path)); err == nil && fi.IsDir() {
		return ld.load(path).Types, nil
	}
	return ld.std.Import(path)
}

func (ld *loader) load(path string) *lint.Package {
	ld.t.Helper()
	if p, ok := ld.pkgs[path]; ok {
		return p
	}
	pkgDir := filepath.Join(ld.dir, path)
	names, err := filepath.Glob(filepath.Join(pkgDir, "*.go"))
	if err != nil || len(names) == 0 {
		ld.t.Fatalf("corpus %s: no Go files (%v)", pkgDir, err)
	}
	sort.Strings(names)
	conf := &types.Config{Importer: ld, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	p, err := lint.Check(conf, ld.fset, path, names)
	if err != nil {
		ld.t.Fatalf("corpus %s does not load: %v", path, err)
	}
	ld.pkgs[path] = p
	return p
}

// want is one expectation parsed from a // want comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

var wantRx = regexp.MustCompile(`//\s*want\s+(.*)`)
var wantArgRx = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Finding is one diagnostic at its resolved position.
type Finding struct {
	Pos     token.Position
	Message string
}

// CheckWants fails t for every finding that no `// want` comment in
// files expects on its line, and for every expectation no finding
// meets; each expectation absorbs one finding.
func CheckWants(t testing.TB, fset *token.FileSet, files []*ast.File, findings []Finding) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantArgRx.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Errorf("%s: bad want pattern %s: %v", pos, q, err)
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range findings {
		matched := false
		for _, w := range wants {
			if !w.used && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
