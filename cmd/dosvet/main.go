// Command dosvet runs doscope's custom analyzer suite (internal/lint)
// over the module: scratchescape, readpurity, errsentinel,
// nodeprecated, and ctxflow — the machine-checked versions of the
// store's load-bearing contracts.
//
// It speaks the `go vet -vettool` protocol itself (one JSON .cfg file
// per package, typechecked from the gc export data it lists), so the
// canonical invocation is
//
//	go vet -vettool=$(which dosvet) ./...
//
// but it is also runnable standalone: invoked without the protocol
// arguments it re-execs itself through `go vet -vettool` so the go
// tool computes export data for it. Analyzer selection flags pass
// through either way (-name=false runs all but the named ones):
//
//	go run ./cmd/dosvet ./...                 # whole suite
//	go run ./cmd/dosvet -nodeprecated ./...   # one analyzer
//
// Findings print to stderr in position order; any finding exits 1.
package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"os/exec"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"

	"doscope/internal/lint"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dosvet: ")
	args := os.Args[1:]
	// Protocol invocations are -V=full, -flags and [-analyzer...]
	// unit.cfg (go vet puts selection flags before the cfg file);
	// anything else is a human at a shell.
	if len(args) == 0 || args[0] != "-V=full" && args[0] != "-flags" && !strings.HasSuffix(args[len(args)-1], ".cfg") {
		os.Exit(standalone(args))
	}
	on := make([]*bool, len(lint.Analyzers))
	for i, a := range lint.Analyzers {
		on[i] = flag.Bool(a.Name, false, "enable "+a.Name+" analysis")
	}
	printFlags := flag.Bool("flags", false, "print analyzer flags in JSON")
	version := flag.String("V", "", "print version and exit (-V=full)")
	flag.Parse()
	switch {
	case *printFlags:
		// go vet reads this list to learn which flags to pass through.
		var flags []map[string]any
		flag.VisitAll(func(f *flag.Flag) {
			_, isBool := f.Value.(interface{ IsBoolFlag() bool })
			flags = append(flags, map[string]any{"Name": f.Name, "Bool": isBool, "Usage": f.Usage})
		})
		if err := json.NewEncoder(os.Stdout).Encode(flags); err != nil {
			log.Fatal(err)
		}
	case *version == "full":
		// go vet keys its cache on this line; the executable's hash as
		// the build ID invalidates it whenever dosvet changes.
		self, err := os.Executable()
		var data []byte
		if err == nil {
			data, err = os.ReadFile(self)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s version devel comments-go-here buildID=%x\n", self, sha256.Sum256(data))
	case *version != "" || flag.NArg() != 1:
		log.Fatal("usage: dosvet [-analyzer...] unit.cfg, as go vet -vettool runs it; or dosvet [-analyzer...] [packages]")
	default:
		// Any -name keeps only the named analyzers; otherwise any
		// -name=false drops the named ones.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		anyOn := slices.ContainsFunc(on, func(b *bool) bool { return *b })
		var analyzers []*analysis.Analyzer
		for i, a := range lint.Analyzers {
			if *on[i] || !anyOn && !set[a.Name] {
				analyzers = append(analyzers, a)
			}
		}
		os.Exit(vet(flag.Arg(0), analyzers))
	}
}

// config is the part of go vet's per-package .cfg file dosvet reads.
type config struct {
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string // import path -> package path
	PackageFile               map[string]string // package path -> export data file
	VetxOnly                  bool              // dependency unit: facts only, no diagnostics
	VetxOutput                string            // where the facts file goes
	SucceedOnTypecheckFailure bool
}

// vet typechecks the unit described by cfgFile, runs analyzers over it
// and prints their findings.
func vet(cfgFile string, analyzers []*analysis.Analyzer) int {
	var cfg config
	data, err := os.ReadFile(cfgFile)
	if err == nil {
		err = json.Unmarshal(data, &cfg)
	}
	if err != nil {
		log.Fatalf("vet config %s: %v", cfgFile, err)
	}
	if cfg.VetxOnly {
		// No analyzer uses facts, so a dependency's facts file is empty.
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Fatal(err)
		}
		return 0
	}
	fset := token.NewFileSet()
	exports := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	conf := &types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath] // resolves vendoring and the like
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return exports.Import(path)
		}),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	p, err := lint.Check(conf, fset, cfg.ImportPath, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		log.Fatal(err)
	}
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		d, err := p.Run(a)
		if err != nil {
			log.Fatal(err)
		}
		diags = append(diags, d...)
	}
	slices.SortStableFunc(diags, func(a, b analysis.Diagnostic) int { return cmp.Compare(a.Pos, b.Pos) })
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	return min(len(diags), 1)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// standalone re-execs through `go vet -vettool=<self>`, defaulting to
// the whole module when no package pattern is given.
func standalone(args []string) int {
	self, err := os.Executable()
	if err != nil {
		log.Print(err)
		return 2
	}
	if !slices.ContainsFunc(args, func(a string) bool { return !strings.HasPrefix(a, "-") }) {
		args = append(args, "./...")
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	var ee *exec.ExitError
	if err := cmd.Run(); errors.As(err, &ee) {
		return ee.ExitCode()
	} else if err != nil {
		log.Print(err)
		return 2
	}
	return 0
}
