// Package hotpathalloc polices allocation on the per-message hot path.
//
// The paper's sharpest number (§5, Table III) is the cost of getting
// this wrong: the original FRAGMENT allocated a header buffer per
// message and cost 0.50 msec per layer; switching to the x-kernel's
// no-alloc header push cut it to 0.11 msec. The message tool preserves
// that discipline (stack-array headers, alias-don't-copy fragmentation)
// but nothing kept a future Push from quietly calling make once per
// message — until this pass.
//
// Inside the Push/Pop/Demux methods (and their unexported spellings) of
// types in protocol packages it flags the expressions that allocate or
// copy per message:
//
//   - make(...), new(...), append(...)
//   - pointer composite literals (&T{...}) and slice/map literals
//   - []byte(string) / string([]byte) conversions
//   - copy(...) between heap byte slices (filling a local stack array,
//     copy(buf[:], src), is the blessed pattern and stays legal)
//   - a trace or log call — a call statement to a func(..., ...any) — that
//     is handed a non-constant value: the caller boxes each such argument
//     into the variadic slice before the callee can look at its level, so
//     a disabled trace.Printf still allocates once per argument per
//     message. The call passes inside `if trace.Enabled(level) { ... }`
//     (any Enabled guard), where the boxing happens only when someone is
//     listening. fmt.Errorf and its kin are not this shape: their result
//     is a value the method returns on a reject path.
//
// Value struct literals (header{...}) live on the stack and pass. So do
// nested function literals — timer callbacks are the timeout path, not
// the per-message path. Boundary operations that must allocate (the
// reassembly slow path, error formatting on reject paths) carry
// //xk:allow hotpathalloc — <reason>.
package hotpathalloc

import (
	"go/ast"
	"go/types"

	"xkernel/internal/analysis/xkanalysis"
)

// Analyzer is the hotpathalloc pass.
var Analyzer = &xkanalysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "no per-message allocation inside protocol Push/Pop/Demux (the paper's 0.50→0.11 msec lesson)",
	Run:  run,
}

// hotPackages are the protocol subtrees whose sessions carry messages.
// The obs tree is included because its wrap boundary interposes on
// every crossing of every instrumented graph: an allocation in
// wrapSession.Push or W.Demux is paid per message per layer even with
// metering and span capture disabled, which is exactly the regression
// the span recorder's disabled-path contract forbids. The wire seam is
// included because a backend or wrapper that adopts the protocol
// entry-point names sits below every session on every frame.
var hotPackages = []string{
	"xkernel/internal/proto",
	"xkernel/internal/rpc",
	"xkernel/internal/psync",
	"xkernel/internal/obs",
	"xkernel/internal/ledger",
	"xkernel/internal/wire",
}

// hotMethods are the per-message entry points.
var hotMethods = map[string]bool{
	"Push": true, "Pop": true, "Demux": true,
	"push": true, "pop": true, "demux": true,
}

// ledgerPkg scopes the extra hot names below: the execution ledger's
// Lookup runs once per request on the server's receive path (the
// lookup-before-execute step of at-most-once), and its zero-alloc
// contract is an acceptance criterion. The names apply ONLY inside the
// ledger subtree — lookup methods elsewhere (Sun RPC's select map
// builds a *SelectError on its reject path) are not per-message code.
const ledgerPkg = "xkernel/internal/ledger"

var ledgerHotMethods = map[string]bool{
	"Lookup": true, "lookup": true,
}

func run(pass *xkanalysis.Pass) (any, error) {
	if !xkanalysis.PkgIn(pass.Pkg, hotPackages...) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ledger := xkanalysis.PkgIn(pass.Pkg, ledgerPkg)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if !hotMethods[fd.Name.Name] && !(ledger && ledgerHotMethods[fd.Name.Name]) {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil, nil
}

func checkBody(pass *xkanalysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	where := fd.Name.Name
	// stack holds the ancestors of the node being visited, so a trace
	// call can be matched against the if statements around it.
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			// Deferred/scheduled work is not the per-message path.
			return false
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && boxesPerMessage(info, call) && !underEnabledGuard(stack) {
				pass.Reportf(call.Pos(), "trace call in hot path %s boxes its arguments per message even when tracing is off (guard it: if trace.Enabled(level) { ... })", where)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "make":
						pass.Reportf(n.Pos(), "make in hot path %s: allocates per message (preallocate in the session, or use a stack array)", where)
					case "new":
						pass.Reportf(n.Pos(), "new in hot path %s: allocates per message", where)
					case "append":
						pass.Reportf(n.Pos(), "append in hot path %s: may grow (allocate) per message", where)
					case "copy":
						if heapByteCopy(info, n) {
							pass.Reportf(n.Pos(), "byte-slice copy in hot path %s: copies payload per message (alias, don't copy — msg.Fragment/Join)", where)
						}
					}
					return true
				}
			}
			// []byte(s) / string(b) conversions allocate and copy.
			if len(n.Args) == 1 {
				if conv, ok := info.Types[n.Fun]; ok && conv.IsType() {
					to := conv.Type.Underlying()
					from := info.Types[n.Args[0]].Type
					if from != nil && isByteSlice(to) && isString(from.Underlying()) {
						pass.Reportf(n.Pos(), "[]byte(string) conversion in hot path %s: allocates and copies per message", where)
					}
					if from != nil && isString(to) && isByteSlice(from.Underlying()) {
						pass.Reportf(n.Pos(), "string([]byte) conversion in hot path %s: allocates and copies per message", where)
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "pointer composite literal in hot path %s: allocates per message", where)
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					pass.Reportf(n.Pos(), "slice literal in hot path %s: allocates per message", where)
				case *types.Map:
					pass.Reportf(n.Pos(), "map literal in hot path %s: allocates per message", where)
				}
			}
		}
		return true
	})
}

// boxesPerMessage reports whether call passes at least one value that
// must be heap-boxed to a final ...interface{} parameter: a non-constant
// of a type that is neither an interface (re-wrapped, not boxed) nor
// pointer-shaped (stored in the interface word as is).
func boxesPerMessage(info *types.Info, call *ast.CallExpr) bool {
	if call.Ellipsis.IsValid() {
		return false // f(args...) hands over an existing slice
	}
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || !sig.Variadic() {
		return false
	}
	last := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice)
	if iface, ok := last.Elem().Underlying().(*types.Interface); !ok || !iface.Empty() {
		return false
	}
	for i := sig.Params().Len() - 1; i < len(call.Args); i++ {
		at := info.Types[call.Args[i]]
		if at.Type == nil || at.Value != nil {
			continue // a constant is boxed once, at compile time
		}
		switch at.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
			continue
		}
		return true
	}
	return false
}

// underEnabledGuard reports whether the innermost node of stack sits in
// the body of an if statement whose condition calls something named
// Enabled (trace.Enabled(level), rec.Enabled()) un-negated.
func underEnabledGuard(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok || stack[i+1] != ast.Node(ifs.Body) {
			continue
		}
		if callsEnabled(ifs.Cond) {
			return true
		}
	}
	return false
}

func callsEnabled(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "!" {
				return false // `if !Enabled() { ... }` guards the wrong branch
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				found = found || fun.Name == "Enabled"
			case *ast.SelectorExpr:
				found = found || fun.Sel.Name == "Enabled"
			}
		}
		return !found
	})
	return found
}

// heapByteCopy reports whether the copy call moves bytes between heap
// slices: both arguments []byte and the destination not a slice of a
// local array (the stack-buffer fill idiom).
func heapByteCopy(info *types.Info, call *ast.CallExpr) bool {
	if len(call.Args) != 2 {
		return false
	}
	dst, src := call.Args[0], call.Args[1]
	dt := info.Types[dst].Type
	st := info.Types[src].Type
	if dt == nil || st == nil || !isByteSlice(dt.Underlying()) {
		return false
	}
	if !isByteSlice(st.Underlying()) && !isString(st.Underlying()) {
		return false
	}
	// copy(buf[:...], src) where buf has array type fills a stack
	// buffer — the blessed no-alloc header idiom.
	if se, ok := ast.Unparen(dst).(*ast.SliceExpr); ok {
		if xt := info.Types[se.X].Type; xt != nil {
			if _, isArr := xt.Underlying().(*types.Array); isArr {
				return false
			}
			if p, isPtr := xt.Underlying().(*types.Pointer); isPtr {
				if _, isArr := p.Elem().Underlying().(*types.Array); isArr {
					return false
				}
			}
		}
	}
	return true
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
