package main

import (
	"bufio"
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"doscope/internal/lint/linttest"
)

// TestVetProtocol drives the real vet path: it builds dosvet, lays the
// internal/lint corpora out as module lintdata, runs
// `go vet -vettool=<dosvet>` over it, and checks go vet's output
// against the corpora's // want comments — exactly one finding per
// expectation and nothing else. linttest checks the analyzers; this
// checks the .cfg protocol driver that carries them to go vet.
func TestVetProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dosvet and runs go vet")
	}
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "dosvet")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	mod := filepath.Join(tmp, "lintdata")
	layoutCorpus(t, "../../internal/lint/testdata/src", mod)

	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // package dir -> parsed files
	paths, _ := filepath.Glob(filepath.Join(mod, "*", "*.go"))
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Base(filepath.Dir(p))
		files[dir] = append(files[dir], f)
	}

	t.Run("all", func(t *testing.T) {
		var all []*ast.File
		for _, fs := range files {
			all = append(all, fs...)
		}
		findings := goVet(t, gotool, bin, mod)
		linttest.CheckWants(t, fset, all, findings)
		t.Logf("%d findings", len(findings))
	})
	t.Run("nodeprecated", func(t *testing.T) {
		findings := goVet(t, gotool, bin, mod, "-nodeprecated")
		linttest.CheckWants(t, fset, append(files["nodep"], files["attack"]...), findings)
	})
}

// layoutCorpus copies the GOPATH-style corpus tree src into dst as
// module lintdata: src/lintdata/attack becomes the module's attack
// package, so the corpora's "lintdata/attack" imports resolve, and
// every other src/<pkg> becomes lintdata/<pkg>.
func layoutCorpus(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		out := filepath.Join(dst, strings.TrimPrefix(rel, "lintdata"+string(filepath.Separator)))
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, "go.mod"), []byte("module lintdata\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

var findingRx = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// goVet runs `go vet -vettool=bin flags... ./...` in mod, requires exit
// status 1, and returns the findings it printed. Any output line that
// is neither a finding nor go vet's "# package" header fails t.
func goVet(t *testing.T, gotool, bin, mod string, flags ...string) []linttest.Finding {
	t.Helper()
	args := append([]string{"vet", "-vettool=" + bin}, flags...)
	cmd := exec.Command(gotool, append(args, "./...")...)
	cmd.Dir = mod
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GOTOOLCHAIN=local")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("go vet %v: want exit status 1, got %v\n%s", flags, err, out)
	}
	var findings []linttest.Finding
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# ") {
			continue
		}
		m := findingRx.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("go vet %v: unexpected output line %q", flags, line)
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(mod, file)
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		findings = append(findings, linttest.Finding{
			Pos:     token.Position{Filename: file, Line: ln, Column: col},
			Message: m[4],
		})
	}
	return findings
}
