package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// ReadPurity enforces the PR 5 read-path contract inside the attack
// package: queries run lock-free against one published view snapshot.
// Concretely, in any function reachable from a function that loads the
// published view (Store.view / Query.views — the loaders behind every
// query terminal), it flags:
//
//   - touching the writer mutex (sync.Mutex/RWMutex Lock and friends),
//   - calling a writer-side mutator (Add, AddBatch, Seal, ingest,
//     beginWrite, adoptIndexes, publish, sealShard on Store; appendRow,
//     thaw, seal on shard; the derived-index adoption and ownership
//     path adopt, sealRows, publish on indexKind),
//   - loading the view more than once per execution: a second
//     same-receiver loader call in one body, or a loader call inside a
//     loop whose receiver the loop does not rebind (Query.views, the
//     one blessed per-store loop, is a loader itself and exempt),
//   - touching the Store.pub pointer anywhere but view and publish.
//
// Reachability follows direct static calls and deliberately stops at
// constructor boundaries — callees returning a *Store (NewStore,
// Collect, PlanStoreContext, segment openers) build a private store and
// may lock it; that store is theirs.
var ReadPurity = &analysis.Analyzer{
	Name: "readpurity",
	Doc: "flags locking, mutation, and repeated view loads on attack's " +
		"query read paths, which must run lock-free against one published view",
	Run: runReadPurity,
}

var (
	storeMutators = map[string]bool{
		"Add": true, "AddBatch": true, "Seal": true, "ingest": true,
		"beginWrite": true, "adoptIndexes": true,
		"publish": true, "sealShard": true,
		// The MPSC ingest front (PR 9): enqueueing, draining, and the
		// queue lifecycle are all writer-side — a read path reaching any
		// of them could publish (or block on) the very view it is
		// snapshotting.
		"enqueue": true, "drainOrWait": true, "drainAll": true,
		"drainer": true, "ensureIngest": true, "StartIngest": true,
		"Flush": true, "Close": true,
	}
	shardMutators = map[string]bool{
		"appendRow": true, "thaw": true, "seal": true,
	}
	// indexMutators are the writer's side of a derived index: adopting a
	// registered build, extending the writer's copy (owning it first when
	// it is shared with a published view), and publishing it.
	indexMutators = map[string]bool{
		"adopt": true, "sealRows": true, "publish": true,
	}
	mutexMethods = map[string]bool{
		"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true,
		"TryLock": true, "TryRLock": true,
	}
)

// isLoader reports whether fn is one of the published-view loaders.
func isLoader(fn *types.Func) bool {
	pkg, typ := recvNamed(fn)
	if pkg != "attack" {
		return false
	}
	return (fn.Name() == "view" && typ == "Store") ||
		(fn.Name() == "views" && typ == "Query")
}

// isMutator reports whether fn is a writer-side mutator.
func isMutator(fn *types.Func) bool {
	pkg, typ := recvNamed(fn)
	if pkg != "attack" {
		return false
	}
	return (typ == "Store" && storeMutators[fn.Name()]) ||
		(typ == "shard" && shardMutators[fn.Name()]) ||
		(typ == "indexKind" && indexMutators[fn.Name()])
}

// isStoreCtor reports whether fn returns a *Store — the constructor
// boundary reachability does not cross.
func isStoreCtor(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isNamedType(sig.Results().At(i).Type(), "attack", "Store") {
			return true
		}
	}
	return false
}

// isMutexRecv reports whether fn's receiver is sync.Mutex or RWMutex.
func isMutexRecv(fn *types.Func) bool {
	pkg, typ := recvNamed(fn)
	return pkg == "sync" && (typ == "Mutex" || typ == "RWMutex")
}

// callsite is one direct call recorded while building the package call
// graph.
type callsite struct {
	callee   *types.Func
	pos      token.Pos
	loopRecv loopRecvKind
	recvText string // receiver expression text, for same-recv dedup
}

type loopRecvKind uint8

const (
	notInLoop         loopRecvKind = iota
	loopRebindsRecv                // receiver is bound by the enclosing loop
	loopInvariantRecv              // receiver survives iterations: repeated load
)

func runReadPurity(pass *analysis.Pass) (any, error) {
	if pass.Pkg.Name() != "attack" {
		return nil, nil
	}
	rep := newReporter(pass)

	// The package call graph over non-test files. Func literals are
	// attributed to their enclosing declaration.
	bodies := make(map[*types.Func]*ast.FuncDecl)
	calls := make(map[*types.Func][]callsite)
	var order []*types.Func
	for _, f := range pass.Files {
		if inTestFile(pass, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			bodies[fn] = fd
			calls[fn] = collectCalls(pass, fd.Body)
			order = append(order, fn)
		}
	}

	// reaches(fn): whether fn's execution can load a published view,
	// stopping at constructor boundaries and never looking inside
	// loader or mutator bodies.
	reach := make(map[*types.Func]int8) // 0 unknown, 1 visiting, 2 yes, 3 no
	var reaches func(fn *types.Func) bool
	reaches = func(fn *types.Func) bool {
		switch reach[fn] {
		case 1, 3:
			return false
		case 2:
			return true
		}
		reach[fn] = 1
		ans := false
		for _, cs := range calls[fn] {
			if isLoader(cs.callee) {
				ans = true
				break
			}
			if isStoreCtor(cs.callee) || isMutator(cs.callee) {
				continue
			}
			if reaches(cs.callee) {
				ans = true
				break
			}
		}
		if ans {
			reach[fn] = 2
		} else {
			reach[fn] = 3
		}
		return ans
	}

	// The read set: every function that loads the view, plus everything
	// those functions call (transitively, same boundaries) — all of it
	// must stay pure.
	onReadPath := make(map[*types.Func]bool)
	var mark func(fn *types.Func)
	mark = func(fn *types.Func) {
		if onReadPath[fn] || isLoader(fn) || isMutator(fn) {
			return
		}
		onReadPath[fn] = true
		for _, cs := range calls[fn] {
			if isStoreCtor(cs.callee) || isLoader(cs.callee) {
				continue
			}
			mark(cs.callee)
		}
	}
	for _, fn := range order {
		if reaches(fn) {
			mark(fn)
		}
	}

	exemptBody := func(fn *types.Func) bool {
		if isLoader(fn) {
			return true
		}
		pkg, typ := recvNamed(fn)
		return pkg == "attack" && typ == "Store" && fn.Name() == "publish"
	}

	for _, fn := range order {
		if exemptBody(fn) {
			continue
		}
		// Store.pub is the published-view slot: only view and publish
		// may touch it, read path or not.
		ast.Inspect(bodies[fn].Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "pub" {
				return true
			}
			if isNamedType(pass.TypesInfo.TypeOf(sel.X), "attack", "Store") {
				rep.reportf(sel.Pos(), "%s accesses Store.pub directly; the published-view "+
					"pointer is loaded only by Store.view and stored only by Store.publish", fn.Name())
			}
			return true
		})
		if !onReadPath[fn] {
			continue
		}
		seenLoaderRecv := make(map[string]bool)
		for _, cs := range calls[fn] {
			switch {
			case isMutator(cs.callee):
				rep.reportf(cs.pos, "%s is reachable from a query terminal but calls the "+
					"mutator %s; read paths must not mutate the store", fn.Name(), cs.callee.Name())
			case mutexMethods[cs.callee.Name()] && isMutexRecv(cs.callee):
				rep.reportf(cs.pos, "%s is reachable from a query terminal but touches a "+
					"sync mutex (%s); read paths run lock-free against the published view",
					fn.Name(), cs.callee.Name())
			case isLoader(cs.callee):
				if cs.loopRecv == loopInvariantRecv {
					rep.reportf(cs.pos, "%s loads the published view inside a loop; load "+
						"once per execution and pass the snapshot down", fn.Name())
					continue
				}
				if cs.recvText != "" && seenLoaderRecv[cs.recvText] {
					rep.reportf(cs.pos, "%s loads the published view more than once per "+
						"execution; a second load can observe a different snapshot — reuse the first",
						fn.Name())
					continue
				}
				seenLoaderRecv[cs.recvText] = true
			}
		}
	}
	return nil, nil
}

// collectCalls records every direct call in body, noting for each how
// its receiver relates to enclosing loops (for the loader-in-loop
// rule). Func literals are walked as part of the enclosing body.
func collectCalls(pass *analysis.Pass, body ast.Node) []callsite {
	var out []callsite
	type loopFrame struct{ bound map[types.Object]bool }
	var loops []loopFrame

	bind := func(frame *loopFrame, exprs ...ast.Expr) {
		for _, e := range exprs {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					frame.bound[obj] = true
				}
			}
		}
	}

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// Executor worker bodies are func literals handed to a
			// fan-out helper; they run as part of the enclosing
			// declaration's execution, so their calls are attributed to
			// it. (childNodes stops at literals for scratchescape's
			// sake, so descend explicitly.)
			walk(n.Body)
			return
		case *ast.ForStmt:
			loops = append(loops, loopFrame{bound: map[types.Object]bool{}})
			walk(n.Init)
			walk(n.Cond)
			walk(n.Post)
			walk(n.Body)
			loops = loops[:len(loops)-1]
			return
		case *ast.RangeStmt:
			frame := loopFrame{bound: map[types.Object]bool{}}
			bind(&frame, n.Key, n.Value)
			walk(n.X)
			loops = append(loops, frame)
			walk(n.Body)
			loops = loops[:len(loops)-1]
			return
		case *ast.CallExpr:
			if fn := calleeFunc(pass, n); fn != nil {
				// Calls on an instantiated generic type resolve to the
				// declaration, whose body the call graph is keyed by.
				cs := callsite{callee: fn.Origin(), pos: n.Pos()}
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					cs.recvText = exprText(sel.X)
					if len(loops) > 0 {
						cs.loopRecv = loopInvariantRecv
						if root := rootIdent(sel.X); root != nil {
							if obj := pass.TypesInfo.ObjectOf(root); obj != nil {
								for _, fr := range loops {
									if fr.bound[obj] {
										cs.loopRecv = loopRebindsRecv
									}
								}
							}
						}
					}
				}
				out = append(out, cs)
			}
		}
		for _, c := range childNodes(n) {
			walk(c)
		}
	}
	walk(body)
	return out
}

// exprText renders a receiver expression for same-receiver matching
// (s.view() twice in one body). It is syntactic on purpose: two
// different spellings of the same store are beyond a linter, but the
// overwhelmingly common bug is the literal repeat.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := exprText(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	case *ast.ParenExpr:
		return exprText(e.X)
	case *ast.StarExpr:
		return exprText(e.X)
	}
	return ""
}
