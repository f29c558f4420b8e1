// Package dataflow is the shared intra-procedural layer under the
// wave-2 analyzers (errsink, lockorder): parent links and
// def-use chains over one go/types-resolved function body.
//
// The model is deliberately small. A Func indexes one function (or
// function literal): every identifier resolved by types.Info is mapped
// to its object, every node to its syntactic parent. From those two
// maps an analyzer asks the only dataflow questions this suite needs —
// "where is this variable used, and in what syntactic role?" — without
// an SSA construction. The analyses stay under-approximate by design:
// a use the chain cannot classify counts as a real use, so the
// analyzers err toward silence, never toward false positives.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Func is the def-use index of one function body.
type Func struct {
	info    *types.Info
	parents map[ast.Node]ast.Node
	uses    map[types.Object][]*ast.Ident
}

// New indexes root (typically a *ast.FuncDecl body or *ast.FuncLit
// body) against the package's type information.
func New(root ast.Node, info *types.Info) *Func {
	f := &Func{
		info:    info,
		parents: make(map[ast.Node]ast.Node),
		uses:    make(map[types.Object][]*ast.Ident),
	}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			f.parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				f.uses[obj] = append(f.uses[obj], id)
			}
		}
		return true
	})
	return f
}

// Parent returns n's syntactic parent within the indexed body, or nil
// at (or above) the root.
func (f *Func) Parent(n ast.Node) ast.Node { return f.parents[n] }

// Path returns the ancestor chain of n, innermost first, up to the
// indexed root.
func (f *Func) Path(n ast.Node) []ast.Node {
	var path []ast.Node
	for p := f.parents[n]; p != nil; p = f.parents[p] {
		path = append(path, p)
	}
	return path
}

// Uses returns every use-identifier of obj inside the indexed body, in
// source order (definitions — the left side of := — are not uses).
func (f *Func) Uses(obj types.Object) []*ast.Ident { return f.uses[obj] }

// UseKind classifies the syntactic role one use of a variable plays.
type UseKind int

const (
	// UseOther is any role the classifier does not model: an operand of
	// arithmetic, an index, a receiver, a composite-literal element.
	// Treat it as a real use.
	UseOther UseKind = iota
	// UseReturned: the value is (part of) a return statement's results.
	UseReturned
	// UseCallArg: the value is passed to some call (wrapping, logging,
	// errors.Is — the callee observes it).
	UseCallArg
	// UseNilCompare: the value is compared against nil (==, !=) and the
	// comparison's result is all the use amounts to.
	UseNilCompare
	// UseAssigned: the value is stored into a variable, field, or map
	// entry (flow continues at the target).
	UseAssigned
)

// ClassifyUse reports the role use (an identifier returned by Uses)
// plays at its site. The classification looks outward through parens:
// the innermost ancestor that gives the value a consumer decides.
func (f *Func) ClassifyUse(use ast.Node) UseKind {
	child := use
	for p := f.parents[child]; p != nil; p = f.parents[p] {
		switch pp := p.(type) {
		case *ast.ParenExpr:
			child = p
			continue
		case *ast.ReturnStmt:
			return UseReturned
		case *ast.CallExpr:
			// An argument (not the callee expression) is handed to the
			// callee; the callee being called is UseOther.
			if pp.Fun == child {
				return UseOther
			}
			return UseCallArg
		case *ast.BinaryExpr:
			if ce, ok := child.(ast.Expr); ok &&
				(pp.Op == token.EQL || pp.Op == token.NEQ) && isNil(f.info, pp.X, pp.Y, ce) {
				return UseNilCompare
			}
			return UseOther
		case *ast.AssignStmt:
			for _, rhs := range pp.Rhs {
				if rhs == child {
					return UseAssigned
				}
			}
			return UseOther
		case *ast.KeyValueExpr, *ast.CompositeLit:
			return UseOther
		default:
			return UseOther
		}
	}
	return UseOther
}

// isNil reports whether the side of a binary comparison opposite child
// is the predeclared nil.
func isNil(info *types.Info, x, y, child ast.Expr) bool {
	other := x
	if x == child {
		other = y
	}
	id, ok := ast.Unparen(other).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := info.Uses[id].(*types.Nil)
	return isNilObj
}

// FieldKey names a struct field globally: "pkgpath.Type.field" for a
// field of a named struct type, "" when expr does not select a field
// the type checker resolved. Analyzers use it as a stable identity for
// locks across every access spelling ("s.mu", "e.shards[i].mu", ...).
func FieldKey(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	field, ok := s.Obj().(*types.Var)
	if !ok || field.Pkg() == nil {
		return ""
	}
	owner := namedOwner(s.Recv())
	if owner == "" {
		return ""
	}
	return field.Pkg().Path() + "." + owner + "." + field.Name()
}

// namedOwner walks to the named type (or named struct through
// pointers) holding a selection's receiver and returns its name.
// Embedded promotion keeps the outermost named type — good enough for
// a stable identity.
func namedOwner(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
