package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// CtxFlow enforces context propagation on the degraded-mode fan-out
// path: a caller-supplied deadline must bound the whole request, so
// backends and helpers may not drop the context on the floor. It flags:
//
//   - implementations of the Queryable methods (PlanCountContext and
//     friends) that never use their context parameter — a backend that
//     ignores ctx silently turns every deadline into the transport
//     default, and a local scan into work for a client that has left,
//   - time.Sleep inside any function that has a context in scope
//     (parameter of it or of an enclosing literal) in the attack,
//     federation, and httpapi packages — a context-blind sleep stalls
//     cancellation; use a ctx-aware wait (federation's sleepCtx).
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "flags Queryable backends that drop the incoming context " +
		"and context-blind sleeps on cancellable paths",
	Run: runCtxFlow,
}

var qcMethods = map[string]bool{
	"PlanCountContext":         true,
	"PlanCountByVectorContext": true,
	"PlanCountByDayContext":    true,
	"PlanStoreContext":         true,
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

// checkQCImpl flags Queryable method implementations whose ctx
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
		rep.reportf(first.Pos(), "%s implements Queryable but discards its context; "+
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
		rep.reportf(first.Pos(), "%s implements Queryable but never uses ctx; "+
			"thread it into the request so caller deadlines bound it", fd.Name.Name)
	}
}

// checkCtxBlind walks fd flagging time.Sleep calls made while a ctx
// is in scope: a parameter of the enclosing function or of any
// function literal around the call.
func checkCtxBlind(pass *analysis.Pass, rep *reporter, fd *ast.FuncDecl) {
	var walk func(n ast.Node, hasCtx bool)
	walk = func(n ast.Node, hasCtx bool) {
		switch n := n.(type) {
		case *ast.FuncLit:
			walk(n.Body, hasCtx || hasCtxParam(pass, n.Type))
			return
		case *ast.CallExpr:
			if hasCtx && isPkgFunc(calleeFunc(pass, n), "time", "Sleep") {
				rep.reportf(n.Pos(), "time.Sleep with a context in scope stalls "+
					"cancellation; use a ctx-aware wait (select on time.After/ctx.Done, "+
					"see federation.sleepCtx)")
			}
		}
		for _, c := range childNodes(n) {
			walk(c, hasCtx)
		}
	}
	walk(fd.Body, hasCtxParam(pass, fd.Type))
}

// hasCtxParam reports whether ft takes a context.Context parameter.
func hasCtxParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, p := range ft.Params.List {
		if isContextType(pass.TypesInfo.TypeOf(p.Type)) {
			return true
		}
	}
	return false
}
