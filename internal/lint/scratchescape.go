package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// ScratchEscape enforces the PR 2 iteration contract: the *Event
// yielded by Iter/IterByStart (and handed to Fold's accumulator) is a
// per-iteration scratch — the struct is reused on the next yield and
// its Ports slice aliases shared storage. Neither the pointer, a value
// copy, nor any slice field of it may outlive the callback. The
// blessed way to retain an event is (*Event).Clone().
//
// The analyzer scans every range over an iter.Seq[*attack.Event] and
// every func literal taking a *attack.Event parameter, taints the
// scratch pointer, propagates the taint through aliasing assignments
// inside the callback, and flags stores to variables declared outside
// it, channel sends, returns, and goroutine/defer captures. A call is
// a sanitization boundary — in particular Clone() — so
// `out = append(out, e.Clone())` is clean while `out = append(out, e)`
// and `out = append(out, *e)` are not.
//
// The attack package itself is exempt: it owns the scratch plumbing.
var ScratchEscape = &analysis.Analyzer{
	Name: "scratchescape",
	Doc: "flags iteration callbacks that let the scratch *attack.Event " +
		"(or its Ports alias) escape; retain a Clone() instead",
	Run: runScratchEscape,
}

func runScratchEscape(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() == "attack" {
		return nil, nil
	}
	rep := newReporter(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if !yieldsScratchEvent(pass, n.X) {
					return true
				}
				id, ok := n.Key.(*ast.Ident)
				if !ok || id.Name == "_" {
					return true
				}
				obj := pass.TypesInfo.ObjectOf(id)
				if obj == nil {
					return true
				}
				es := newEscapeScan(pass, rep, n, nil)
				es.tainted[obj] = true
				es.run(n.Body)
			case *ast.FuncLit:
				var scratch []types.Object
				for _, field := range n.Type.Params.List {
					if !isEventPtr(pass.TypesInfo.TypeOf(field.Type)) {
						continue
					}
					for _, name := range field.Names {
						if obj := pass.TypesInfo.ObjectOf(name); obj != nil {
							scratch = append(scratch, obj)
						}
					}
				}
				if len(scratch) == 0 {
					return true
				}
				es := newEscapeScan(pass, rep, n, n)
				for _, o := range scratch {
					es.tainted[o] = true
				}
				es.run(n.Body)
			}
			return true
		})
	}
	return nil, nil
}

// yieldsScratchEvent reports whether ranging over an expression of x's
// type yields *attack.Event through an iter.Seq-shaped function — the
// scratch-event sources (Query/FedQuery Iter and IterByStart) all have
// this shape.
func yieldsScratchEvent(pass *analysis.Pass, x ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(x)
	if t == nil {
		return false
	}
	seq, ok := t.Underlying().(*types.Signature)
	if !ok || seq.Params().Len() != 1 {
		return false
	}
	yield, ok := seq.Params().At(0).Type().Underlying().(*types.Signature)
	if !ok || yield.Params().Len() != 1 {
		return false
	}
	return isEventPtr(yield.Params().At(0).Type())
}

// escapeScan propagates scratch taint through one callback body to a
// fixpoint, flagging each way the scratch can outlive the iteration.
type escapeScan struct {
	pass     *analysis.Pass
	rep      *reporter
	boundary ast.Node     // the RangeStmt or FuncLit owning the scratch
	bodyLit  *ast.FuncLit // non-nil when the boundary is a FuncLit
	tainted  map[types.Object]bool
	reported map[token.Pos]bool
	changed  bool
}

func newEscapeScan(pass *analysis.Pass, rep *reporter, boundary ast.Node, lit *ast.FuncLit) *escapeScan {
	return &escapeScan{
		pass:     pass,
		rep:      rep,
		boundary: boundary,
		bodyLit:  lit,
		tainted:  make(map[types.Object]bool),
		reported: make(map[token.Pos]bool),
	}
}

func (es *escapeScan) run(body *ast.BlockStmt) {
	for {
		es.changed = false
		es.walk(body, es.bodyLit)
		if !es.changed {
			break
		}
	}
}

func (es *escapeScan) flag(pos token.Pos, format string, args ...any) {
	if es.reported[pos] {
		return
	}
	es.reported[pos] = true
	es.rep.reportf(pos, "scratch *attack.Event escapes its iteration callback: "+format+
		" (the event and its Ports are reused on the next yield; retain a Clone() instead)", args...)
}

// declaredInside reports whether obj's declaration lies within the
// callback boundary — such variables die with the iteration and may
// hold taint; anything else outlives it.
func (es *escapeScan) declaredInside(obj types.Object) bool {
	return obj.Pos() >= es.boundary.Pos() && obj.Pos() <= es.boundary.End()
}

// walk visits n attributing returns to curLit, the innermost enclosing
// func literal (nil when a return would exit the function surrounding
// a range-statement boundary).
func (es *escapeScan) walk(n ast.Node, curLit *ast.FuncLit) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.FuncLit:
		es.walk(n.Body, n)
		return
	case *ast.AssignStmt:
		es.assign(n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != len(vs.Names) {
					continue
				}
				for i, v := range vs.Values {
					if es.taintedExpr(v) {
						es.taintName(vs.Names[i], v.Pos())
					}
				}
			}
		}
	case *ast.SendStmt:
		if es.taintedExpr(n.Value) {
			es.flag(n.Value.Pos(), "sent on a channel")
		}
	case *ast.ReturnStmt:
		// A return at the callback's own level hands the scratch to
		// the iterator driver (range case: to the surrounding
		// function). Returns from helper literals nested inside the
		// callback stay within the iteration and are not flagged.
		if curLit == es.bodyLit {
			for _, r := range n.Results {
				if es.taintedExpr(r) {
					es.flag(r.Pos(), "returned from the callback")
				}
			}
		}
	case *ast.GoStmt:
		es.asyncCall(n.Call, "passed to a goroutine")
	case *ast.DeferStmt:
		es.asyncCall(n.Call, "captured by a deferred call that runs after the iteration")
	}
	for _, c := range childNodes(n) {
		es.walk(c, curLit)
	}
}

// asyncCall flags taint reaching a call that executes outside the
// iteration step: tainted arguments, and tainted free variables of a
// func-literal callee.
func (es *escapeScan) asyncCall(call *ast.CallExpr, how string) {
	for _, a := range call.Args {
		if es.taintedExpr(a) {
			es.flag(a.Pos(), "%s", how)
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := es.pass.TypesInfo.Uses[id]; obj != nil && es.tainted[obj] {
					es.flag(id.Pos(), "%s", how)
				}
			}
			return true
		})
	}
}

func (es *escapeScan) assign(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return // multi-value call/map/type-assert RHS: a call boundary
	}
	for i, rhs := range n.Rhs {
		if !es.taintedExpr(rhs) {
			continue
		}
		lhs := n.Lhs[i]
		root := rootIdent(lhs)
		if root == nil {
			es.flag(lhs.Pos(), "stored through an expression the analyzer cannot track")
			continue
		}
		if root.Name == "_" {
			continue
		}
		obj := es.pass.TypesInfo.ObjectOf(root)
		if obj == nil {
			continue
		}
		if !es.declaredInside(obj) {
			how := "stored to %q, which outlives the iteration"
			if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(es.pass, call) {
				how = "appended to %q, which outlives the iteration, without Clone()"
			}
			es.flag(rhs.Pos(), how, root.Name)
			continue
		}
		if !es.tainted[obj] {
			es.tainted[obj] = true
			es.changed = true
		}
	}
}

func (es *escapeScan) taintName(id *ast.Ident, pos token.Pos) {
	obj := es.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return
	}
	if !es.declaredInside(obj) {
		es.flag(pos, "stored to %q, which outlives the iteration", id.Name)
		return
	}
	if !es.tainted[obj] {
		es.tainted[obj] = true
		es.changed = true
	}
}

// taintedExpr reports whether evaluating e can yield a value that
// aliases the scratch event. Calls are sanitization boundaries (their
// results are fresh) except the append builtin, which forwards its
// arguments' aliases, and conversions, which are value-preserving.
func (es *escapeScan) taintedExpr(e ast.Expr) bool {
	if !canAlias(es.pass.TypesInfo.TypeOf(e), 0) {
		return false
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := es.pass.TypesInfo.ObjectOf(e)
		return obj != nil && es.tainted[obj]
	case *ast.ParenExpr:
		return es.taintedExpr(e.X)
	case *ast.StarExpr:
		return es.taintedExpr(e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && es.taintedExpr(e.X)
	case *ast.SelectorExpr:
		return es.taintedExpr(e.X)
	case *ast.IndexExpr:
		return es.taintedExpr(e.X)
	case *ast.SliceExpr:
		return es.taintedExpr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if es.taintedExpr(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if tv, ok := es.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
			return len(e.Args) == 1 && es.taintedExpr(e.Args[0]) // conversion
		}
		if isBuiltinAppend(es.pass, e) {
			for _, a := range e.Args {
				if es.taintedExpr(a) {
					return true
				}
			}
		}
		return false
	default:
		return false
	}
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// childNodes returns n's immediate children for the manual walk,
// skipping the node kinds walk handles itself.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	switch n := n.(type) {
	case *ast.FuncLit, nil:
		return nil
	case *ast.BlockStmt:
		for _, s := range n.List {
			out = append(out, s)
		}
	default:
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return c == n
			}
			out = append(out, c)
			return false
		})
	}
	return out
}
