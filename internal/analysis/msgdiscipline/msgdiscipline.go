// Package msgdiscipline enforces the message tool's ownership contract
// (internal/msg doc comment, from the paper's §3.2/§5 buffer-management
// lessons): bytes returned by Pop and Peek alias the message's leader or
// shared immutable payload blocks, so they are
//
//  1. read-only — writing through them corrupts storage other messages
//     alias (`b[i] = x`, `append(b, ...)`, `copy(b, ...)` where b came
//     from Pop/Peek), and
//  2. valid only until the message's next mutation — using the slice
//     after a subsequent Push/Pop/Append/Join/Truncate of the same Msg
//     reads bytes that may have been overwritten.
//
// and the rule that makes handing a message on free ("Push consumes",
// DESIGN.md §14):
//
//  3. a *msg.Msg passed to a session's Push or Call, or to a wire's
//     SendMsg, is dead — the callee pushes headers onto it in place and,
//     since a frame crosses the wire as the message, it may already be
//     another host's message on another goroutine. Any later use of the
//     variable is a data race waiting for an async network.
//
// The pass checks the rules within each function body: conservative,
// flow-insensitive statement ordering by source position, which matches
// how the hot paths are written (straight-line header parsing). Copy the
// bytes, or finish with them before mutating, to satisfy rules 1 and 2;
// Clone (or CopyInto) before the push, or assign the variable a fresh
// message, to satisfy rule 3. Rule 3 follows block structure one step
// further than source order: a push in a block that ends by leaving the
// function or the loop (`return s.Push(m)`) kills nothing after the block.
package msgdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"xkernel/internal/analysis/xkanalysis"
)

// Analyzer is the msgdiscipline pass.
var Analyzer = &xkanalysis.Analyzer{
	Name: "msgdiscipline",
	Doc:  "slices from msg.Pop/Peek are read-only and die at the Msg's next mutation; a Msg dies at Push/Call/SendMsg",
	Run:  run,
}

// msgPath is the message tool's import path.
const msgPath = "xkernel/internal/msg"

// mutators are the *msg.Msg methods that invalidate outstanding
// Pop/Peek slices. Peek, Len, Bytes, Clone, Fragment, Split, Attr and
// SetAttr leave the stored bytes alone.
var mutators = map[string]bool{
	"Push": true, "MustPush": true, "Pop": true,
	"Append": true, "Join": true, "Truncate": true,
}

// taint records one slice variable obtained from Pop/Peek.
type taint struct {
	obj    types.Object // the slice variable
	msgKey string       // rendering of the Msg expression it came from
	method string       // "Pop" or "Peek"
	pos    token.Pos    // where the taint was created
}

func run(pass *xkanalysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkBody(pass, fd.Body)
			}
		}
	}
	return nil, nil
}

// msgMethod returns the method name and receiver rendering when call is
// a method call on *msg.Msg, else "".
func msgMethod(info *types.Info, call *ast.CallExpr) (name, recv string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	obj := xkanalysis.FuncObj(info, call)
	if !xkanalysis.MethodOfPkg(obj, msgPath) {
		return "", ""
	}
	return obj.Name(), types.ExprString(sel.X)
}

func checkBody(pass *xkanalysis.Pass, body *ast.BlockStmt) {
	checkSlices(pass, body)
	checkConsumed(pass, body)
}

func checkSlices(pass *xkanalysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// First sweep: collect taints (b, _ := m.Pop(n) / b := m.Peek(n))
	// and every mutation of a Msg expression, in source order.
	var taints []*taint
	type mutation struct {
		msgKey string
		name   string
		pos    token.Pos
	}
	var mutations []mutation
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				name, recv := msgMethod(info, call)
				if name != "Pop" && name != "Peek" {
					continue
				}
				// The slice result is the first LHS (Pop and Peek both
				// return ([]byte, error)); with a single call RHS the
				// assignment spreads, with parallel assignment it lines
				// up by index.
				lhsIdx := 0
				if len(n.Rhs) == len(n.Lhs) {
					lhsIdx = i
				}
				id, ok := n.Lhs[lhsIdx].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				taints = append(taints, &taint{obj: obj, msgKey: recv, method: name, pos: call.Pos()})
			}
		case *ast.CallExpr:
			if name, recv := msgMethod(info, n); name != "" && mutators[name] {
				mutations = append(mutations, mutation{msgKey: recv, name: name, pos: n.Pos()})
			}
		}
		return true
	})
	if len(taints) == 0 {
		return
	}
	taintOf := func(e ast.Expr) *taint {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.Uses[id]
		if obj == nil {
			return nil
		}
		for _, t := range taints {
			if t.obj == obj {
				return t
			}
		}
		return nil
	}

	// Second sweep: writes through tainted slices, and uses of tainted
	// slices positioned after a mutation of their source Msg.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				ix, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				if t := taintOf(ix.X); t != nil {
					pass.Reportf(lhs.Pos(),
						"write into slice returned by %s.%s: the bytes alias the message's shared storage (copy them first)",
						t.msgKey, t.method)
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				_, isBuiltin := info.Uses[id].(*types.Builtin)
				switch {
				case isBuiltin && id.Name == "append":
					if t := taintOf(n.Args[0]); t != nil {
						pass.Reportf(n.Pos(),
							"append to slice returned by %s.%s may grow into the message's shared storage (copy it first)",
							t.msgKey, t.method)
					}
				case isBuiltin && id.Name == "copy" && len(n.Args) == 2:
					if t := taintOf(n.Args[0]); t != nil {
						pass.Reportf(n.Pos(),
							"copy into slice returned by %s.%s overwrites the message's shared storage",
							t.msgKey, t.method)
					}
				}
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				return true
			}
			for _, t := range taints {
				if t.obj != obj || n.Pos() <= t.pos {
					continue
				}
				for _, m := range mutations {
					if m.msgKey == t.msgKey && m.pos > t.pos && m.pos < n.Pos() {
						pass.Reportf(n.Pos(),
							"slice returned by %s.%s used after %s.%s mutated the message: the bytes may be gone (copy before mutating)",
							t.msgKey, t.method, m.msgKey, m.name)
						return true
					}
				}
			}
		}
		return true
	})
}

// isMsgPtr reports whether t is *msg.Msg.
func isMsgPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == "Msg" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == msgPath
}

// consumes reports whether call hands its *msg.Msg arguments to a new
// owner: a SendMsg method, or the Push or Call of a session — a type
// whose method set has Push(*msg.Msg) error, which is what makes it one.
func consumes(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := xkanalysis.FuncObj(info, call)
	if obj == nil || obj.Type().(*types.Signature).Recv() == nil {
		return false
	}
	switch obj.Name() {
	case "SendMsg":
		return true
	case "Push", "Call":
		recv := info.TypeOf(sel.X)
		if recv == nil {
			return false
		}
		push, _, _ := types.LookupFieldOrMethod(recv, true, obj.Pkg(), "Push")
		f, ok := push.(*types.Func)
		if !ok {
			return false
		}
		sig := f.Type().(*types.Signature)
		return sig.Params().Len() == 1 && isMsgPtr(sig.Params().At(0).Type()) &&
			sig.Results().Len() == 1 && sig.Results().At(0).Type().String() == "error"
	}
	return false
}

// leaves reports whether s never falls through to the statement after it.
func leaves(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok != token.FALLTHROUGH
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// checkConsumed enforces rule 3. A consumed variable is dead from the end
// of the consuming call to the end of the innermost enclosing statement
// list that does not leave (see leaves) — the whole function body at the
// outside — except where a later assignment gives it a fresh message.
func checkConsumed(pass *xkanalysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	type death struct {
		obj      types.Object
		how      string    // "s.Push"
		from, to token.Pos // the dead range
	}
	var deaths []death

	// lists is the stack of enclosing statement lists, innermost last.
	var lists [][]ast.Stmt
	reach := func() token.Pos {
		for i := len(lists) - 1; i > 0; i-- {
			if l := lists[i]; len(l) > 0 && leaves(l[len(l)-1]) {
				return l[len(l)-1].End()
			}
		}
		return body.End()
	}
	var walk func(n ast.Node) bool
	walkList := func(l []ast.Stmt) {
		lists = append(lists, l)
		for _, st := range l {
			ast.Inspect(st, walk)
		}
		lists = lists[:len(lists)-1]
	}
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
			walkList(n.List)
			return false
		case *ast.CaseClause:
			walkList(n.Body)
			return false
		case *ast.CommClause:
			if n.Comm != nil {
				ast.Inspect(n.Comm, walk)
			}
			walkList(n.Body)
			return false
		case *ast.FuncLit:
			checkConsumed(pass, n.Body) // a function of its own
			return false
		case *ast.CallExpr:
			if !consumes(info, n) {
				return true
			}
			for _, arg := range n.Args {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok || !isMsgPtr(info.TypeOf(id)) {
					continue
				}
				if obj, ok := info.Uses[id].(*types.Var); ok {
					deaths = append(deaths, death{obj, types.ExprString(n.Fun), n.End(), reach()})
				}
			}
		}
		return true
	}
	walkList(body.List)
	if len(deaths) == 0 {
		return
	}

	// An assignment to the variable gives it a new message: the
	// identifier assigned is not a use, and uses after it are of the new
	// message.
	type revival struct {
		obj types.Object
		pos token.Pos
	}
	var revivals []revival
	lhs := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok {
					lhs[id] = true
					revivals = append(revivals, revival{info.ObjectOf(id), as.End()})
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || lhs[id] {
			return true
		}
		obj := info.Uses[id]
	next:
		for _, d := range deaths {
			if d.obj != obj || id.Pos() < d.from || id.Pos() >= d.to {
				continue
			}
			for _, r := range revivals {
				if r.obj == obj && r.pos > d.from && r.pos <= id.Pos() {
					continue next
				}
			}
			pass.Reportf(id.Pos(),
				"%s used after %s consumed it: the message belongs to the callee, and may already be on another host (Clone before the push, or build a fresh message)",
				id.Name, d.how)
			return true
		}
		return true
	})
}
