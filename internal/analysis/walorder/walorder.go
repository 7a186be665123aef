// Package walorder enforces the write-ahead discipline PR 7's
// execution ledger depends on, statically:
//
//  1. Record happens-before the reply push. A server-side function
//     that constructs a reply header (writes the package's flagReply
//     constant into a flags field or composite literal) and pushes a
//     payload-carrying message must call ExecLedger.Record — or the
//     at-most-once core's write-ahead site, amo.Chan.Record — lexically
//     before the push. Without the Record, a crash between send and
//     log re-executes a non-idempotent handler on retransmit — the
//     exact duplicate LEDGER exists to prevent. Messages derived from
//     msg.Empty() (control frames: acks, rejects) and from the replay
//     amo.Host.Admit returns (copies of an already-recorded reply) are
//     exempt.
//
//  2. Lookup happens-before execute. A function in a ledger-aware rpc
//     package that dispatches a request to user code — an interface
//     Demux call or an invocation of a value of a named Handler func
//     type — must be dominated by an ExecLedger.Lookup or by the
//     at-most-once core's admission, amo.Host.Admit, which owns the
//     dedup lookups: lexically earlier in the same function, or
//     established by every in-module caller (checked through the shared
//     call graph, a few frames deep). Executing before the dedup lookup
//     breaks at-most-once.
//
// The pass is scoped to packages under internal/rpc that import
// internal/ledger — the two engines that own the discipline and the core
// they share — so the many Demux calls in ledger-free protocols
// (fragment, selectp, ...) are out of scope by construction.
package walorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"xkernel/internal/analysis/callgraph"
	"xkernel/internal/analysis/xkanalysis"
)

const (
	rpcPrefix  = "xkernel/internal/rpc"
	ledgerPath = "xkernel/internal/ledger"
	amoPath    = "xkernel/internal/rpc/amo"
	msgPath    = "xkernel/internal/msg"
)

// Analyzer is the walorder pass.
var Analyzer = &xkanalysis.Analyzer{
	Name:     "walorder",
	Doc:      "write-ahead ledger discipline: Record before the reply push, Lookup before handler dispatch",
	Requires: []*xkanalysis.Analyzer{callgraph.Analyzer},
	Run:      run,
}

func run(pass *xkanalysis.Pass) (any, error) {
	if pass.Pkg == nil || !xkanalysis.PkgIn(pass.Pkg, rpcPrefix) || !importsLedger(pass.Pkg) {
		return nil, nil
	}
	graph, _ := pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph)
	c := &checker{pass: pass, graph: graph}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkRecordBeforePush(fd)
			c.checkLookupBeforeExecute(fd)
		}
	}
	return nil, nil
}

func importsLedger(pkg *types.Package) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == ledgerPath {
			return true
		}
	}
	return false
}

type checker struct {
	pass  *xkanalysis.Pass
	graph *callgraph.Graph
}

// ---- rule 1: Record happens-before the reply push ----

func (c *checker) checkRecordBeforePush(fd *ast.FuncDecl) {
	if !c.constructsReply(fd) {
		return
	}
	var recordPos []ast.Node
	var pushes []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c.isLedgerCall(call, "Record") {
			recordPos = append(recordPos, call)
		}
		if c.isSessionPush(call) {
			pushes = append(pushes, call)
		}
		return true
	})
	for _, push := range pushes {
		if len(push.Args) == 0 || !c.isPayload(fd, push.Args[0]) {
			continue
		}
		recorded := false
		for _, r := range recordPos {
			if r.Pos() < push.Pos() {
				recorded = true
				break
			}
		}
		if !recorded {
			c.pass.Reportf(push.Pos(),
				"reply pushed without a preceding ExecLedger.Record (or amo.Chan.Record) in %s; a crash between send and log re-executes the handler on retransmit (write-ahead discipline)",
				fd.Name.Name)
		}
	}
}

// constructsReply reports whether fd writes the package's flagReply
// constant into a header — a KeyValueExpr inside a composite literal,
// or the RHS of an assignment to something named flags. Reads
// (h.flags&flagReply) do not count, so reply-parsing client code stays
// out of scope.
func (c *checker) constructsReply(fd *ast.FuncDecl) bool {
	flagReply := c.pass.Pkg.Scope().Lookup("flagReply")
	if flagReply == nil {
		return false
	}
	found := false
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok || c.pass.TypesInfo.Uses[id] != flagReply {
			return true
		}
		if writesFlag(stack) {
			found = true
		}
		return true
	})
	return found
}

// writesFlag classifies the use at the top of the stack: constructing
// (composite literal value, assignment RHS, possibly through |) vs
// reading (operand of &, &^, ==, !=).
func writesFlag(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.BinaryExpr:
			switch p.Op.String() {
			case "|":
				continue // still could be a constructed value
			default:
				return false // &, &^, ==, != ... — a read
			}
		case *ast.KeyValueExpr, *ast.CompositeLit:
			return true
		case *ast.AssignStmt:
			return true
		case *ast.ValueSpec:
			return true
		case *ast.CallExpr:
			return true // passed as a flags argument to a frame builder
		case ast.Stmt, *ast.FuncDecl:
			return false
		}
	}
	return false
}

// isLedgerCall matches method calls named name on an ExecLedger-ish
// receiver — the interface itself, or any type declared in (or
// implementing the interface from) internal/ledger — and the
// at-most-once core's method that stands for the same call.
func (c *checker) isLedgerCall(call *ast.CallExpr, name string) bool {
	obj := xkanalysis.FuncObj(c.pass.TypesInfo, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case ledgerPath:
		return obj.Name() == name
	case amoPath:
		return obj.Name() == coreSite[name]
	}
	return false
}

// coreSite names the at-most-once core's sites for the ledger calls the
// rules order: its write-ahead Chan.Record, and Host.Admit, which owns
// the dedup lookups.
var coreSite = map[string]string{"Record": "Record", "Lookup": "Admit"}

// isSessionPush matches Push calls on anything except the msg package
// (msg.Message has no Push; the exclusion mirrors locksafety's).
func (c *checker) isSessionPush(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Push" {
		return false
	}
	obj := xkanalysis.FuncObj(c.pass.TypesInfo, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() == msgPath {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// isPayload classifies the pushed message: true unless it provably
// derives from msg.Empty() (control frame) or amo.Host.Admit (the replay
// of an already-recorded reply). Unknown origins count as
// payload — the invariant is what needs proving, and //xk:allow exists
// for deliberate exceptions.
func (c *checker) isPayload(fd *ast.FuncDecl, arg ast.Expr) bool {
	return c.classify(fd, arg, 0) != exempt
}

type origin int

const (
	payload origin = iota
	exempt
)

const traceDepth = 6

func (c *checker) classify(fd *ast.FuncDecl, e ast.Expr, depth int) origin {
	if depth > traceDepth {
		return payload
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		obj := xkanalysis.FuncObj(c.pass.TypesInfo, e)
		if obj != nil {
			if xkanalysis.IsPkgLevelFunc(obj, msgPath, "Empty") {
				return exempt
			}
			if obj.Pkg() != nil && obj.Pkg().Path() == amoPath && obj.Name() == coreSite["Lookup"] {
				return exempt
			}
			// msg.New(x), m.Clone(), ... : classify the receiver/argument.
			if xkanalysis.IsPkgLevelFunc(obj, msgPath, "New") && len(e.Args) > 0 {
				return c.classify(fd, e.Args[0], depth+1)
			}
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
				if obj.Pkg() != nil && obj.Pkg().Path() == msgPath {
					return c.classify(fd, sel.X, depth+1)
				}
			}
		}
		return payload
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			return payload
		}
		for _, rhs := range singleAssign(fd, c.pass.TypesInfo, obj) {
			if c.classify(fd, rhs, depth+1) == exempt {
				return exempt
			}
		}
		// Range values: `for _, fb := range frames` classifies frames.
		if x := rangeSource(fd, c.pass.TypesInfo, obj); x != nil {
			return c.classify(fd, x, depth+1)
		}
		return payload
	case *ast.SelectorExpr:
		return payload
	}
	return payload
}

// singleAssign returns obj's assignment RHSs within fd, but only when
// there is exactly one — multiple assignments make the origin
// ambiguous and the caller stays conservative.
func singleAssign(fd *ast.FuncDecl, info *types.Info, obj types.Object) []ast.Expr {
	var out []ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			target := info.Defs[id]
			if target == nil {
				target = info.Uses[id]
			}
			if target != obj {
				continue
			}
			if len(as.Rhs) == len(as.Lhs) {
				out = append(out, as.Rhs[i])
			} else if len(as.Rhs) == 1 {
				out = append(out, as.Rhs[0])
			}
		}
		return true
	})
	if len(out) != 1 {
		return nil
	}
	return out
}

// rangeSource finds the expression obj ranges over, when obj is a
// range key/value variable in fd.
func rangeSource(fd *ast.FuncDecl, info *types.Info, obj types.Object) ast.Expr {
	var src ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		r, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		for _, v := range []ast.Expr{r.Key, r.Value} {
			if id, ok := v.(*ast.Ident); ok && info.Defs[id] == obj {
				src = r.X
			}
		}
		return true
	})
	return src
}

// ---- rule 2: Lookup happens-before execute ----

func (c *checker) checkLookupBeforeExecute(fd *ast.FuncDecl) {
	obj, _ := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	var dispatches []*ast.CallExpr
	lookups := c.lookupPositions(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c.isDispatch(call) {
			dispatches = append(dispatches, call)
		}
		return true
	})
	for _, d := range dispatches {
		covered := false
		for _, lp := range lookups {
			if lp < d.Pos() {
				covered = true
				break
			}
		}
		if !covered && c.graph != nil && c.callersEstablishLookup(obj, 0, map[*types.Func]bool{}) {
			covered = true
		}
		if !covered {
			c.pass.Reportf(d.Pos(),
				"handler dispatched without a preceding ExecLedger.Lookup (or amo.Host.Admit) in %s or its callers; executing before the dedup lookup breaks at-most-once",
				fd.Name.Name)
		}
	}
}

func (c *checker) lookupPositions(fd *ast.FuncDecl) []token.Pos {
	var out []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.isLedgerCall(call, "Lookup") {
			out = append(out, call.Pos())
		}
		return true
	})
	return out
}

// isDispatch matches handler invocations: an interface Demux call, or
// a call of a value whose type is a named func type called Handler.
func (c *checker) isDispatch(call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Demux" {
		if obj := xkanalysis.FuncObj(c.pass.TypesInfo, call); obj != nil {
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				return true
			}
		}
	}
	if t := c.pass.TypesInfo.Types[call.Fun].Type; t != nil {
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Handler" {
			if _, ok := named.Underlying().(*types.Signature); ok {
				return true
			}
		}
	}
	return false
}

const callerDepth = 3

// callersEstablishLookup reports whether every in-module caller of fn
// performs a ledger Lookup before the call site (or is itself covered,
// up to callerDepth frames). A function with no known callers is not
// covered — the graph can miss call sites, and optimism here would
// mean missing the one dispatch path that matters.
func (c *checker) callersEstablishLookup(fn *types.Func, depth int, seen map[*types.Func]bool) bool {
	if depth >= callerDepth || seen[fn] {
		return false
	}
	seen[fn] = true
	callers := c.graph.Callers(fn)
	if len(callers) == 0 {
		return false
	}
	for _, e := range callers {
		if e.Caller.Pkg() == nil || !strings.HasPrefix(e.Caller.Pkg().Path(), "xkernel/") {
			return false
		}
		if c.callerLookupBefore(e) {
			continue
		}
		if !c.callersEstablishLookup(e.Caller, depth+1, seen) {
			return false
		}
	}
	return true
}

// callerLookupBefore checks whether the calling function performs a
// ledger Lookup lexically before the edge's call site. The caller's
// syntax is found through the pass files when the caller is in this
// package; cross-package callers rely on recursion into their own
// callers instead.
func (c *checker) callerLookupBefore(e callgraph.Edge) bool {
	decl := c.declOf(e.Caller)
	if decl == nil {
		return false
	}
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.isLedgerCall(call, "Lookup") && call.Pos() < e.Pos {
			found = true
		}
		return true
	})
	return found
}

func (c *checker) declOf(fn *types.Func) *ast.FuncDecl {
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj, _ := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); obj == fn {
					return fd
				}
			}
		}
	}
	return nil
}
