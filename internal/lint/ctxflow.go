package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// CtxFlow enforces context propagation on the degraded-mode fan-out
// path (PR 7): a caller-supplied deadline must bound the whole
// request, so backends and helpers may not drop the context on the
// floor. It flags:
//
//   - implementations of the QueryableContext methods (PlanCountContext
//     and friends) that never use their context parameter — a backend
//     that ignores ctx silently turns every deadline into the
//     transport default,
//   - time.Sleep inside any function that has a context in scope
//     (parameter of it or of an enclosing literal) in the attack,
//     federation, and httpapi packages — a context-blind sleep stalls
//     cancellation; use a ctx-aware wait (federation's sleepCtx),
//   - context-less Queryable calls (PlanCount and friends) on an
//     interface-typed backend from a function with a context in scope,
//     unless that function first type-asserts to QueryableContext —
//     the fall-back-after-assert pattern the federated terminal runner
//     uses.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flags QueryableContext backends that drop the incoming context " +
		"and context-blind blocking calls on cancellable paths",
	Run: runCtxFlow,
}

var qcMethods = map[string]bool{
	"PlanCountContext":         true,
	"PlanCountByVectorContext": true,
	"PlanCountByDayContext":    true,
	"PlanStoreContext":         true,
}

var planMethods = map[string]bool{
	"PlanCount":         true,
	"PlanCountByVector": true,
	"PlanCountByDay":    true,
	"PlanStore":         true,
}

func isContextType(t types.Type) bool {
	return isNamedType(t, "context", "Context")
}

func runCtxFlow(pass *analysis.Pass) (any, error) {
	rep := newReporter(pass)
	scoped := false
	switch pass.Pkg.Name() {
	case "attack", "federation", "httpapi":
		scoped = true
	}
	for _, f := range pass.Files {
		if inTestFile(pass, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkQCImpl(pass, rep, fd)
			if scoped {
				checkCtxBlind(pass, rep, fd)
			}
		}
	}
	return nil, nil
}

// checkQCImpl flags QueryableContext method implementations whose ctx
// parameter is unnamed, blank, or never read.
func checkQCImpl(pass *analysis.Pass, rep *reporter, fd *ast.FuncDecl) {
	if fd.Recv == nil || !qcMethods[fd.Name.Name] {
		return
	}
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return
	}
	first := params.List[0]
	if !isContextType(pass.TypesInfo.TypeOf(first.Type)) {
		return
	}
	if len(first.Names) == 0 || first.Names[0].Name == "_" {
		rep.reportf(first.Pos(), "%s implements QueryableContext but discards its context; "+
			"thread ctx into the request so caller deadlines bound it", fd.Name.Name)
		return
	}
	obj := pass.TypesInfo.ObjectOf(first.Names[0])
	if obj == nil {
		return
	}
	used := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			used = true
		}
		return !used
	})
	if !used {
		rep.reportf(first.Pos(), "%s implements QueryableContext but never uses ctx; "+
			"thread it into the request so caller deadlines bound it", fd.Name.Name)
	}
}

// ctxFrame is one function (decl or literal) on the lexical stack,
// with whether it (or an enclosing frame) has a context parameter and
// whether its body contains a QueryableContext type assertion.
type ctxFrame struct {
	hasCtx   bool
	asserted bool
}

// checkCtxBlind walks fd flagging context-blind sleeps and
// context-less Queryable interface calls made while a ctx is in scope.
func checkCtxBlind(pass *analysis.Pass, rep *reporter, fd *ast.FuncDecl) {
	var stack []ctxFrame

	push := func(ft *ast.FuncType, body *ast.BlockStmt) {
		fr := ctxFrame{}
		if len(stack) > 0 {
			fr = stack[len(stack)-1] // ctx stays lexically in scope
		}
		if ft.Params != nil {
			for _, p := range ft.Params.List {
				if isContextType(pass.TypesInfo.TypeOf(p.Type)) {
					fr.hasCtx = true
				}
			}
		}
		if body != nil && hasQCAssert(pass, body) {
			fr.asserted = true
		}
		stack = append(stack, fr)
	}

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			push(n.Type, n.Body)
			walk(n.Body)
			stack = stack[:len(stack)-1]
			return
		case *ast.CallExpr:
			if len(stack) > 0 && stack[len(stack)-1].hasCtx {
				fr := stack[len(stack)-1]
				fn := calleeFunc(pass, n)
				switch {
				case isPkgFunc(fn, "time", "Sleep"):
					rep.reportf(n.Pos(), "time.Sleep with a context in scope stalls "+
						"cancellation; use a ctx-aware wait (select on time.After/ctx.Done, "+
						"see federation.sleepCtx)")
				case fn != nil && fn.Pkg() != nil && fn.Pkg().Name() == "attack" &&
					planMethods[fn.Name()] && !fr.asserted && interfaceRecvCall(pass, n):
					rep.reportf(n.Pos(), "context-less %s on an interface backend while ctx "+
						"is in scope; type-assert to QueryableContext first and fall back "+
						"only for local backends", fn.Name())
				}
			}
		}
		for _, c := range childNodes(n) {
			walk(c)
		}
	}

	push(fd.Type, fd.Body)
	walk(fd.Body)
}

// interfaceRecvCall reports whether call is a method call through an
// interface-typed receiver (dynamic dispatch — the case where the
// concrete backend might offer QueryableContext).
func interfaceRecvCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	return t != nil && types.IsInterface(t)
}

// hasQCAssert reports whether body contains a type assertion or type
// switch to a type named QueryableContext.
func hasQCAssert(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ta, ok := n.(*ast.TypeAssertExpr)
		if !ok || ta.Type == nil {
			return true
		}
		if isNamedType(pass.TypesInfo.TypeOf(ta.Type), "attack", "QueryableContext") {
			found = true
		}
		return !found
	})
	return found
}
