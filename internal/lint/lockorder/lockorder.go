// Package lockorder implements the static lock-hierarchy analyzer: it
// builds the mutex-acquisition graph of each serving-path package —
// lock class A points at lock class B when some path acquires B while
// holding A — and reports two shapes that can deadlock a live daemon:
//
//   - a cycle between lock classes (A taken under B somewhere, B taken
//     under A somewhere else): two goroutines entering from opposite
//     ends block forever;
//   - a self-edge (one instance of a class taken while another is
//     already held — e.g. a shard lock acquired under a sibling shard's
//     lock) with no global order between instances, the classic
//     reshard/rebalance deadlock.
//
// A lock class is a struct field or package-level variable of type
// sync.Mutex/RWMutex, identified as pkgpath.Type.field, so "s.mu" in a
// method and "e.shards[i].mu" in a loop land in the same class. The
// graph is intra-package but inter-procedural within the package:
// per-function acquisition summaries propagate through same-package
// static calls to a fixpoint, so Lookup -> lockedHelper -> other.mu is
// an edge even though no single function shows both locks. Calls
// through interfaces and into other packages are not followed — the
// analyzer under-approximates rather than guesses.
//
// An acquisition order that is safe by construction (instances ordered
// by index, a lock private to a constructor) carries //lint:allow
// lockorder <reason> on the inner acquisition.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"otacache/internal/lint/analysis"
	"otacache/internal/lint/dataflow"
)

// DefaultScope lists the import-path suffixes guarded by default: the
// packages whose locks sit under concurrent serving traffic.
var DefaultScope = []string{
	"internal/engine",
	"internal/cache",
	"internal/flash",
	"internal/core",
	"internal/server",
}

// Config parameterizes the analyzer; tests narrow Scope to fixture
// package paths.
type Config struct {
	// Scope is the list of import-path suffixes to check; empty checks
	// every package.
	Scope []string
}

// Analyzer is the default-configured instance cmd/otalint runs.
var Analyzer = New(Config{Scope: DefaultScope})

// acquire is one Lock/RLock call site with the classes held on entry.
type acquire struct {
	class string
	pos   token.Pos
	held  []string
}

// callSite is one same-package static call made while holding locks.
type callSite struct {
	callee *types.Func
	pos    token.Pos
	held   []string
}

// funcInfo is one function's lock summary.
type funcInfo struct {
	acquires []acquire
	calls    []callSite
}

// edge is one arc of the acquisition graph with a representative
// position (the inner acquisition, or the call that reaches it).
type edge struct {
	from, to string
	pos      token.Pos
}

// New builds a lockorder analyzer with the given configuration.
func New(cfg Config) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "lockorder",
		Doc: "forbids lock-order cycles and unordered same-class nesting in the " +
			"static mutex-acquisition graph of serving-path packages",
	}
	a.Run = func(pass *analysis.Pass) error {
		if !inScope(pass.Pkg.Path(), cfg.Scope) {
			return nil
		}
		infos := collect(pass)
		edges := buildEdges(pass, infos)
		report(pass, edges)
		return nil
	}
	return a
}

// collect computes every function's lock summary.
func collect(pass *analysis.Pass) map[*types.Func]*funcInfo {
	infos := make(map[*types.Func]*funcInfo)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{}
			s := &scanner{pass: pass, fi: fi}
			s.block(fd.Body.List, nil)
			infos[obj] = fi
		}
	}
	return infos
}

// buildEdges turns summaries into graph edges, propagating transitive
// acquisitions through same-package calls to a fixpoint.
func buildEdges(pass *analysis.Pass, infos map[*types.Func]*funcInfo) []edge {
	// reach[f] = classes f acquires directly or through same-package
	// callees.
	reach := make(map[*types.Func]map[string]bool, len(infos))
	for f, fi := range infos {
		set := make(map[string]bool)
		for _, a := range fi.acquires {
			set[a.class] = true
		}
		reach[f] = set
	}
	for changed := true; changed; {
		changed = false
		for f, fi := range infos {
			for _, c := range fi.calls {
				callee, ok := reach[c.callee]
				if !ok {
					continue
				}
				for class := range callee {
					if !reach[f][class] {
						reach[f][class] = true
						changed = true
					}
				}
			}
		}
	}
	var edges []edge
	for _, fi := range infos {
		for _, a := range fi.acquires {
			for _, h := range a.held {
				edges = append(edges, edge{from: h, to: a.class, pos: a.pos})
			}
		}
		for _, c := range fi.calls {
			for class := range reach[c.callee] {
				for _, h := range c.held {
					edges = append(edges, edge{from: h, to: class, pos: c.pos})
				}
			}
		}
	}
	return edges
}

// report finds self-edges and cycles and reports each once.
func report(pass *analysis.Pass, edges []edge) {
	sort.Slice(edges, func(i, j int) bool { return edges[i].pos < edges[j].pos })
	adj := make(map[string][]edge)
	seenSelf := make(map[token.Pos]bool)
	for _, e := range edges {
		if e.from == e.to {
			if !seenSelf[e.pos] {
				seenSelf[e.pos] = true
				pass.Reportf(e.pos,
					"lock %s acquired while another %s is already held; instances of one class have no global order — restructure or justify with //lint:allow lockorder <reason>",
					short(e.to), short(e.from))
			}
			continue
		}
		adj[e.from] = append(adj[e.from], e)
	}
	// Cycle detection over distinct classes: for each edge A->B, a path
	// B ~> A closes a cycle. Walking the edges in position order and
	// deduplicating by class set reports each cycle once, at its
	// earliest edge, deterministically.
	reported := make(map[string]bool)
	for _, start := range edges {
		if start.from == start.to {
			continue
		}
		path := pathBetween(adj, start.to, start.from)
		if path == nil {
			continue
		}
		// path runs start.to .. start.from inclusive; the cycle node list
		// is start.from, start.to, then the intermediates.
		cycle := append([]string{start.from, start.to}, path[1:len(path)-1]...)
		key := canonical(cycle)
		if reported[key] {
			continue
		}
		reported[key] = true
		pass.Reportf(start.pos,
			"lock-order cycle: %s; a concurrent caller on the opposite order deadlocks — pick one order or justify with //lint:allow lockorder <reason>",
			fmt.Sprintf("%s -> %s", strings.Join(shortAll(cycle), " -> "), short(cycle[0])))
	}
}

// pathBetween returns a node path from (excluding) -> to, or nil.
func pathBetween(adj map[string][]edge, from, to string) []string {
	visited := map[string]bool{from: true}
	var dfs func(n string) []string
	dfs = func(n string) []string {
		if n == to {
			return []string{n}
		}
		for _, e := range adj[n] {
			if visited[e.to] {
				continue
			}
			visited[e.to] = true
			if p := dfs(e.to); p != nil {
				return append([]string{n}, p...)
			}
		}
		return nil
	}
	if from == to {
		return []string{from}
	}
	return dfs(from)
}

// canonical keys a cycle independently of its starting point.
func canonical(cycle []string) string {
	c := append([]string(nil), cycle...)
	sort.Strings(c)
	return strings.Join(c, "|")
}

func short(class string) string {
	if i := strings.LastIndex(class, "/"); i >= 0 {
		return class[i+1:]
	}
	return class
}

func shortAll(classes []string) []string {
	out := make([]string, len(classes))
	for i, c := range classes {
		out[i] = short(c)
	}
	return out
}

// heldLock is one acquired lock: its class plus the receiver spelling
// used to match the Unlock.
type heldLock struct {
	class string
	recv  string
}

// scanner threads the held-lock set through one function body in
// statement order, the same frame discipline lockscope uses: function
// literals are separate frames (goroutines and deferred closures run
// elsewhere in time).
type scanner struct {
	pass *analysis.Pass
	fi   *funcInfo
}

func (s *scanner) block(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, st := range stmts {
		held = s.stmt(st, held)
	}
	return held
}

func (s *scanner) stmt(st ast.Stmt, held []heldLock) []heldLock {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if class, recv, op, ok := s.mutexOp(st.X); ok {
			switch op {
			case "Lock", "RLock":
				s.fi.acquires = append(s.fi.acquires, acquire{class: class, pos: st.X.Pos(), held: classes(held)})
				return append(append([]heldLock(nil), held...), heldLock{class: class, recv: recv})
			case "Unlock", "RUnlock":
				return removeLock(held, recv)
			}
			return held
		}
		s.checkExpr(st.X, held)
	case *ast.DeferStmt:
		// defer x.Unlock() holds to the end of the frame: nothing to do.
		// Other deferred calls run outside this frame's order.
	case *ast.GoStmt:
		// A spawned goroutine does not hold the caller's locks.
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.checkExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.checkExpr(e, held)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		s.checkExpr(st.Cond, held)
		s.block(st.Body.List, held)
		if st.Else != nil {
			s.stmt(st.Else, held)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		if st.Cond != nil {
			s.checkExpr(st.Cond, held)
		}
		s.block(st.Body.List, held)
	case *ast.RangeStmt:
		s.checkExpr(st.X, held)
		s.block(st.Body.List, held)
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		if st.Tag != nil {
			s.checkExpr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			s.block(c.(*ast.CaseClause).Body, held)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			s.block(c.(*ast.CaseClause).Body, held)
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			s.block(c.(*ast.CommClause).Body, held)
		}
	case *ast.BlockStmt:
		held = s.block(st.List, held)
	case *ast.LabeledStmt:
		held = s.stmt(st.Stmt, held)
	case *ast.DeclStmt:
		s.checkExpr(st.Decl, held)
	case *ast.SendStmt:
		s.checkExpr(st.Value, held)
	}
	return held
}

// checkExpr records same-package static calls made while locks are
// held (the inter-procedural seam) and nested Lock calls buried in
// expressions.
func (s *scanner) checkExpr(node ast.Node, held []heldLock) {
	if node == nil || len(held) == 0 {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if class, _, op, ok := s.mutexOp(n); ok {
				if op == "Lock" || op == "RLock" {
					s.fi.acquires = append(s.fi.acquires, acquire{class: class, pos: n.Pos(), held: classes(held)})
				}
				return false
			}
			if callee := s.samePkgCallee(n); callee != nil {
				s.fi.calls = append(s.fi.calls, callSite{callee: callee, pos: n.Pos(), held: classes(held)})
			}
		}
		return true
	})
}

// samePkgCallee resolves a static call to a function or method defined
// in the package under analysis; interface dispatch resolves to nil.
func (s *scanner) samePkgCallee(call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = s.pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := s.pass.TypesInfo.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return nil
			}
		}
		fn, _ = s.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() != s.pass.Pkg {
		return nil
	}
	return fn
}

// mutexOp recognizes x.Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// RWMutex and returns the lock class, the receiver spelling, and the
// operation.
func (s *scanner) mutexOp(e ast.Expr) (class, recv, op string, ok bool) {
	call, ok2 := ast.Unparen(e).(*ast.CallExpr)
	if !ok2 {
		return "", "", "", false
	}
	sel, ok2 := call.Fun.(*ast.SelectorExpr)
	if !ok2 {
		return "", "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", "", false
	}
	fn, ok2 := s.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok2 || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", "", false
	}
	r := fn.Type().(*types.Signature).Recv()
	if r == nil {
		return "", "", "", false
	}
	if n := recvTypeName(r.Type()); n != "Mutex" && n != "RWMutex" {
		return "", "", "", false
	}
	class = s.lockClass(sel.X)
	if class == "" {
		return "", "", "", false
	}
	return class, types.ExprString(sel.X), sel.Sel.Name, true
}

// lockClass names the mutex a lock expression denotes: a struct field
// ("pkg.Type.field") or a package-level variable ("pkg.var"). Locks
// held in locals are not classified (they cannot participate in a
// cross-function order).
func (s *scanner) lockClass(x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		if key := dataflow.FieldKey(s.pass.TypesInfo, x); key != "" {
			return key
		}
	case *ast.Ident:
		if v, ok := s.pass.TypesInfo.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

func classes(held []heldLock) []string {
	out := make([]string, len(held))
	for i, h := range held {
		out[i] = h.class
	}
	return out
}

func removeLock(held []heldLock, recv string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].recv == recv {
			out := append([]heldLock(nil), held[:i]...)
			return append(out, held[i+1:]...)
		}
	}
	return held
}

func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func inScope(pkgPath string, scope []string) bool {
	if len(scope) == 0 {
		return true
	}
	for _, s := range scope {
		if strings.HasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}
