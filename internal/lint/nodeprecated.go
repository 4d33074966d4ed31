package lint

import (
	"go/ast"

	"golang.org/x/tools/go/analysis"
)

// NoDeprecated is the type-aware replacement for the Makefile's
// deprecated-API grep: it flags calls to (*attack.Store).Events — the
// snapshot shim kept for the paper's original example style — anywhere
// outside the attack package itself. The grep matched variable names
// (st.Events()); this matches the method on the receiver's type, so
// renaming the variable no longer smuggles a deprecated call past the
// check, and false positives on unrelated Events methods are gone.
//
// The attack package (the shim's own body and the tests that use
// Events() as an oracle) is allowlisted, as are _test.go files.
var NoDeprecated = &analysis.Analyzer{
	Name: "nodeprecated",
	Doc: "flags calls to the deprecated (*attack.Store).Events " +
		"snapshot API outside the attack package",
	Run: runNoDeprecated,
}

func runNoDeprecated(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "attack" {
		return nil, nil
	}
	rep := newReporter(pass)
	replacement := map[string]string{
		"Events": "Query().Iter() (or Query().Events() for a filtered copy)",
	}
	for _, f := range pass.Files {
		if inTestFile(pass, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil {
				return true
			}
			repl, deprecated := replacement[fn.Name()]
			if !deprecated {
				return true
			}
			if pkg, typ := recvNamed(fn); pkg != "attack" || typ != "Store" {
				return true
			}
			rep.reportf(call.Pos(), "(*attack.Store).%s is deprecated: it materializes "+
				"the whole store on every call; use %s", fn.Name(), repl)
			return true
		})
	}
	return nil, nil
}
