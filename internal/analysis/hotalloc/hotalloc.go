// Package hotalloc flags per-call allocations on the packet hot path.
// Jaal's monitors summarize every packet of an ISP-scale stream; an
// allocation per packet (or per question per epoch) is the difference
// between the summarization budget of §4 holding and the collector
// falling behind. The analyzer computes the set of functions reachable
// from the hot roots — packet ingest, batch summarization, the
// controller's epoch round, and the worker-pool internals — and
// reports allocation sites inside them:
//
//   - fmt.Sprintf / fmt.Sprint / fmt.Sprintln (per-call formatting)
//   - append to a local slice declared without capacity (growth
//     reallocations; presize with make(T, 0, n) or annotate)
//   - map and slice composite literals
//   - call arguments boxing a non-pointer value into an interface
//     parameter (each boxing heap-allocates the value); variadic
//     ...any parameters are exempt — those are reporting sinks, and
//     the Sprintf rule already covers hot formatting
//
// Arguments of panic(...) are never reported: an assertion message
// allocates once, on the way down.
//
// Reachability crosses package boundaries: packages are analyzed
// importers-first, and every cross-package callee reached from hot code
// is recorded in the shared pass state, becoming a root when its own
// package is analyzed. Function literals inside hot functions are hot
// (they are the loop bodies fanned out by par.For).
//
// A reviewed allocation is silenced in place, with a reason, like any
// other jaal-vet finding:
//
//	buf = append(buf, b) //jaalvet:ignore hotalloc — sealed-batch flush, amortized over MinBatch packets
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the hotalloc checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "flag per-call allocations (Sprintf, growth appends, literals, interface boxing) in code reachable from the packet hot path",
	Run:  run,
}

// hotRoots seeds reachability, keyed by package basename. Methods are
// named (recv).Name with the receiver type rendered as written. A root
// that names no declaration would be ignored silently, so TestHotRootsExist
// checks every one against the real packages.
var hotRoots = map[string][]string{
	"core": {
		"(*Monitor).Ingest",
		"(*Monitor).summarize",
		"(*Monitor).Poll",
		"(*Controller).ProcessEpoch",
		"(*Pipeline).Ingest",
		"(*Engine).RunEpoch",
	},
	"par": {
		"(*task).run",
		"For",
	},
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, decls: map[*types.Func]*ast.FuncDecl{}}

	// marks carries hot cross-package callees between packages of one
	// run (keyed by types.Func.FullName). Importers-first visiting means
	// every caller package already deposited its marks.
	marks, _ := pass.Shared["marks"].(map[string]bool)
	if marks == nil {
		marks = map[string]bool{}
		if pass.Shared != nil {
			pass.Shared["marks"] = marks
		}
	}
	c.marks = marks

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.decls[obj] = fd
				c.order = append(c.order, obj)
			}
		}
	}

	// Seed: configured roots for this package plus marks deposited by
	// already-analyzed importer packages.
	roots := map[string]bool{}
	for _, r := range hotRoots[lastElem(pass.Pkg.Path())] {
		roots[r] = true
	}
	hot := map[*types.Func]bool{}
	var queue []*types.Func
	for _, obj := range c.order {
		if roots[declName(c.decls[obj])] || marks[obj.FullName()] {
			hot[obj] = true
			queue = append(queue, obj)
		}
	}

	// Reachability: same-package callees join the queue, cross-package
	// callees are marked for their own package's pass.
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		ast.Inspect(c.decls[obj].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := c.callee(call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg() == pass.Pkg {
				if d := c.decls[fn]; d != nil && !hot[fn] {
					hot[fn] = true
					queue = append(queue, fn)
				}
			} else if strings.Contains(fn.Pkg().Path(), "/") {
				// Module-internal only: stdlib packages are never
				// analyzed, and marking them would just grow the map.
				marks[fn.FullName()] = true
			}
			return true
		})
	}

	for _, obj := range c.order {
		if hot[obj] {
			c.checkFunc(c.decls[obj])
		}
	}
	return nil
}

type checker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	order []*types.Func
	marks map[string]bool
}

// checkFunc reports the allocation sites of one hot function. FuncLit
// bodies are included: a literal defined on the hot path runs on it.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	capless := c.caplessLocals(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanic(c.pass, n) {
				// Allocations that feed a panic happen once, on the way
				// down: assertion messages are not the hot path.
				return false
			}
			c.checkCall(n, capless)
		case *ast.CompositeLit:
			t := c.pass.TypesInfo.TypeOf(n)
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Map:
				c.pass.Reportf(n.Pos(), "map literal allocates in the hot path")
			case *types.Slice:
				if len(n.Elts) > 0 {
					c.pass.Reportf(n.Pos(), "slice literal allocates in the hot path")
				}
			}
		}
		return true
	})
}

// caplessLocals collects local slice variables declared with no
// capacity: `var xs []T`, `xs := []T{}`, or an explicit nil. Growing
// one with append reallocates log-many times.
func (c *checker) caplessLocals(body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	mark := func(ident *ast.Ident) {
		v, ok := c.pass.TypesInfo.Defs[ident].(*types.Var)
		if !ok || v == nil {
			return
		}
		if _, ok := v.Type().Underlying().(*types.Slice); ok {
			out[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				ident, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if lit, ok := n.Rhs[i].(*ast.CompositeLit); ok && len(lit.Elts) == 0 {
					mark(ident)
				} else if id, ok := n.Rhs[i].(*ast.Ident); ok && id.Name == "nil" {
					mark(ident)
				}
			}
		}
		return true
	})
	return out
}

// checkCall reports Sprintf-family calls, growth appends and boxing
// arguments of one call.
func (c *checker) checkCall(call *ast.CallExpr, capless map[*types.Var]bool) {
	if fn := c.callee(call); fn != nil && fn.Pkg() != nil &&
		fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Sprintf", "Sprint", "Sprintln":
			c.pass.Reportf(call.Pos(), "fmt.%s allocates in the hot path", fn.Name())
			return
		}
	}

	if ident, ok := call.Fun.(*ast.Ident); ok && ident.Name == "append" {
		if _, isBuiltin := c.pass.TypesInfo.Uses[ident].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			if target, ok := call.Args[0].(*ast.Ident); ok {
				if v, ok := c.pass.TypesInfo.Uses[target].(*types.Var); ok && capless[v] {
					c.pass.Reportf(call.Pos(),
						"append grows capacity-less slice %s in the hot path (presize with make or suppress with a reason)",
						target.Name)
				}
			}
		}
		return
	}

	// Interface boxing: a non-pointer value passed where an interface
	// parameter is expected heap-allocates a copy on every call.
	sig, ok := c.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if ok && !hasEllipsis(call) {
		for i, arg := range call.Args {
			pt := paramType(sig, i)
			if pt == nil || !types.IsInterface(pt) {
				continue
			}
			tv, ok := c.pass.TypesInfo.Types[arg]
			if !ok || tv.IsNil() || tv.Type == nil {
				continue
			}
			if !boxes(tv.Type) {
				continue
			}
			c.pass.Reportf(arg.Pos(), "%s (non-pointer %s) is boxed into interface %s per call in the hot path",
				types.ExprString(arg), tv.Type.String(), pt.String())
		}
	}
}

// boxes reports whether storing a value of type t in an interface
// heap-allocates: true for multi-word and non-pointer-shaped types.
// Pointers, maps, channels and funcs are pointer-shaped (one word, no
// allocation); interfaces are not conversions.
func boxes(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return false
	}
	return true
}

func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params == nil {
		return nil
	}
	if sig.Variadic() && i >= params.Len()-1 {
		// Variadic interface parameters (fmt-style ...any) box, but the
		// call is almost always reporting or error formatting; the
		// Sprintf rule already covers hot formatting, so stay quiet.
		return nil
	}
	if i >= params.Len() {
		return nil
	}
	return params.At(i).Type()
}

func hasEllipsis(call *ast.CallExpr) bool { return call.Ellipsis.IsValid() }

// isPanic recognizes a call to the builtin panic.
func isPanic(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, builtin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return builtin
}

func (c *checker) callee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if s, ok := c.pass.TypesInfo.Selections[fun]; ok {
			fn, _ := s.Obj().(*types.Func)
			return fn
		}
		fn, _ := c.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := c.pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}

// declName renders a declaration the way hotRoots names it:
// "(recv).Name" for methods, "Name" for functions.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

func lastElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
