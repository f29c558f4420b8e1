// Package errsink implements the dropped-error analyzer: in the
// accounting-bearing packages (the serving engine, the flash store, the
// daemon, and the report-writing commands) an error value must not
// vanish. The paper's WAF/endurance numbers are sums of charged events
// — every device fault, every rejected write, every failed report line
// — so an error that is silently discarded is a hole in the ledger: the
// run looks healthier than the device it measured.
//
// Two tiers, both intra-procedural over dataflow def-use chains:
//
//   - Every call whose last result is an error must not drop it: called
//     as a bare statement (including defer/go), assigned to the blank
//     identifier, or bound to a variable that is never read again —
//     each is a finding. (fmt, log, and in-memory writers that cannot
//     meaningfully fail are exempt.)
//
//   - Calls into the tracked accounting seams — flash.Device
//     Read/Program/Erase, the flash.Store and cache.Policy mutators,
//     core.FallibleFilter.DecideErr — are held to a stricter standard:
//     an error that is only ever nil-checked, with no branch returning
//     it, passing it on, or charging a counter (a ++/+= on a struct
//     field), is a finding too. "I looked at it" is not accounting.
//
// Sites where the discard is correct by design (a store that already
// charged the failure internally, a read-side Close with nothing to
// account) carry //lint:allow errsink <reason>.
package errsink

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"otacache/internal/lint/analysis"
	"otacache/internal/lint/dataflow"
)

// DefaultScope lists the import-path suffixes guarded by default: the
// packages whose error flows feed the paper's accounting, plus every
// report-writing command.
var DefaultScope = []string{
	"internal/engine",
	"internal/flash",
	"internal/cache",
	"internal/core",
	"internal/server",
	"cmd/otacached",
	"cmd/otaload",
	"cmd/otasim",
	"cmd/benchjson",
	"cmd/benchtables",
	"cmd/tracegen",
	"cmd/trainer",
	"cmd/otalint",
}

// Source names one tracked method set for the stricter observed-only
// rule: methods of the named type (or interface) in packages whose
// import path ends with PkgSuffix. Methods is nil for "every method
// with an error result".
type Source struct {
	PkgSuffix string
	Type      string
	Methods   []string
}

// DefaultSources are the accounting seams the ISSUE pins: the raw
// device, the store and policy mutators, and the fallible classifier.
// (cache.Policy mutators return no errors today; the entry keeps the
// rule armed if one ever grows an error result.)
var DefaultSources = []Source{
	{PkgSuffix: "internal/flash", Type: "Device", Methods: []string{"Read", "Program", "Erase"}},
	{PkgSuffix: "internal/flash", Type: "Store", Methods: []string{"Write", "Restore", "ReadExtent"}},
	{PkgSuffix: "internal/cache", Type: "Policy"},
	{PkgSuffix: "internal/core", Type: "FallibleFilter", Methods: []string{"DecideErr"}},
}

// Config parameterizes the analyzer; tests narrow Scope and Sources to
// fixture packages.
type Config struct {
	// Scope is the list of import-path suffixes to check; empty checks
	// every package.
	Scope []string
	// Sources are the method sets under the stricter observed-only
	// rule; nil uses DefaultSources.
	Sources []Source
}

// Analyzer is the default-configured instance cmd/otalint runs.
var Analyzer = New(Config{Scope: DefaultScope, Sources: DefaultSources})

// exemptPkgs are packages whose error results carry no accounting
// weight here: formatted printing to a terminal and logging are
// best-effort by convention.
var exemptPkgs = map[string]bool{"fmt": true, "log": true}

// exemptTypes are receiver types whose Write-shaped methods are
// documented to never return a non-nil error (in-memory sinks).
var exemptTypes = map[string]bool{
	"bytes.Buffer":     true,
	"strings.Builder":  true,
	"hash.Hash":        true,
	"hash/crc32.Table": true,
}

// New builds an errsink analyzer with the given configuration.
func New(cfg Config) *analysis.Analyzer {
	sources := cfg.Sources
	if sources == nil {
		sources = DefaultSources
	}
	a := &analysis.Analyzer{
		Name: "errsink",
		Doc: "forbids dropping error values in accounting-bearing packages: " +
			"every error is returned, consumed, or charged to a counter",
	}
	a.Run = func(pass *analysis.Pass) error {
		if !inScope(pass.Pkg.Path(), cfg.Scope) {
			return nil
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				s := &scanner{pass: pass, df: dataflow.New(fd, pass.TypesInfo), sources: sources}
				s.scan(fd.Body)
			}
		}
		return nil
	}
	return a
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

type scanner struct {
	pass    *analysis.Pass
	df      *dataflow.Func
	sources []Source
}

// scan walks one function body, visiting every call whose last result
// is an error and classifying the error's fate.
func (s *scanner) scan(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, last, nres := calleeWithErrorResult(s.pass.TypesInfo, call)
		if !last {
			return true
		}
		if s.exempt(callee) {
			return true
		}
		s.checkCall(call, callee, nres)
		return true
	})
}

// checkCall classifies what happens to the error result of one call.
func (s *scanner) checkCall(call *ast.CallExpr, callee *types.Func, nres int) {
	name := calleeName(callee)
	parent := s.df.Parent(call)
	// Look through parentheses around the call expression itself.
	for {
		if p, ok := parent.(*ast.ParenExpr); ok && p.X == call {
			parent = s.df.Parent(p)
			continue
		}
		break
	}
	switch p := parent.(type) {
	case *ast.ExprStmt:
		s.pass.Reportf(call.Pos(),
			"error from %s is dropped; return it, charge a Metrics/Stats counter, or justify with //lint:allow errsink <reason>", name)
	case *ast.DeferStmt:
		if p.Call == call {
			s.pass.Reportf(call.Pos(),
				"error from deferred %s is dropped; close explicitly on the success path or justify with //lint:allow errsink <reason>", name)
		}
	case *ast.GoStmt:
		if p.Call == call {
			s.pass.Reportf(call.Pos(),
				"error from %s is dropped by go statement; collect it in the goroutine or justify with //lint:allow errsink <reason>", name)
		}
	case *ast.AssignStmt:
		s.checkAssign(p, call, callee, nres, name)
	default:
		// The call's value is consumed in place (returned, passed on,
		// compared). The tracked seams still demand more than a look.
		if s.tracked(callee) && s.observedOnly(call) {
			s.reportObservedOnly(call, name)
		}
	}
}

// checkAssign follows the error once it is bound by an assignment:
// blank, never-read, or (for tracked seams) read only by nil-checks.
func (s *scanner) checkAssign(assign *ast.AssignStmt, call *ast.CallExpr, callee *types.Func, nres int, name string) {
	lhs := errLHS(assign, call, nres)
	if lhs == nil {
		return // unextractable shape; assume consumed
	}
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return // stored into a field or map entry: flow continues there
	}
	if id.Name == "_" {
		s.pass.Reportf(call.Pos(),
			"error from %s is discarded into _; handle it or justify with //lint:allow errsink <reason>", name)
		return
	}
	obj := s.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = s.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	reads := s.readUses(obj, assign)
	if len(reads) == 0 {
		s.pass.Reportf(call.Pos(),
			"error from %s is assigned to %s but never read afterwards; handle it or justify with //lint:allow errsink <reason>", name, id.Name)
		return
	}
	if s.tracked(callee) && s.nilChecksOnly(reads) {
		s.reportObservedOnly(call, name)
	}
}

// readUses returns obj's uses that read the value THIS assignment
// bound (assignment-target writes excluded). gc already rejects a
// local with no reads at all, so the interesting case is a variable
// reused across calls: only reads after the assignment see this call's
// error. Reads inside function literals count regardless of position
// (closures run at unknown times), and an assignment inside a loop
// counts every read (a back-edge can carry the value to an earlier
// line) — both keep the rule under-approximate.
func (s *scanner) readUses(obj types.Object, assign *ast.AssignStmt) []*ast.Ident {
	loop := inLoop(s.df, assign)
	var reads []*ast.Ident
	for _, use := range s.df.Uses(obj) {
		if isAssignTarget(s.df, use) {
			continue
		}
		if use.Pos() >= assign.Pos() && use.End() <= assign.End() {
			continue
		}
		if use.Pos() < assign.Pos() && !loop && !inFuncLit(s.df, use) {
			continue
		}
		reads = append(reads, use)
	}
	return reads
}

// inLoop reports whether n sits inside a for or range statement.
func inLoop(df *dataflow.Func, n ast.Node) bool {
	for _, anc := range df.Path(n) {
		switch anc.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}

// inFuncLit reports whether n sits inside a function literal.
func inFuncLit(df *dataflow.Func, n ast.Node) bool {
	for _, anc := range df.Path(n) {
		if _, ok := anc.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// isAssignTarget reports whether use appears on the left side of an
// assignment (a write, not a read).
func isAssignTarget(df *dataflow.Func, use *ast.Ident) bool {
	if a, ok := df.Parent(use).(*ast.AssignStmt); ok {
		for _, l := range a.Lhs {
			if l == use {
				return true
			}
		}
	}
	return false
}

// nilChecksOnly reports whether every read of the error is a bare nil
// comparison with no branch that charges a counter.
func (s *scanner) nilChecksOnly(reads []*ast.Ident) bool {
	for _, use := range reads {
		if s.df.ClassifyUse(use) != dataflow.UseNilCompare {
			return false
		}
		if s.compareConsumed(use) || s.guardedBranchCharges(use) {
			return false
		}
	}
	return true
}

// observedOnly handles the direct-comparison shape (`if f() != nil`):
// the call's only consumer is a nil comparison whose branches charge
// nothing.
func (s *scanner) observedOnly(call *ast.CallExpr) bool {
	if s.df.ClassifyUse(call) != dataflow.UseNilCompare {
		return false
	}
	return !s.compareConsumed(call) && !s.guardedBranchCharges(call)
}

// compareConsumed reports whether the nil comparison containing use is
// itself consumed — returned, stored, or passed on (`return err ==
// nil`, `ok := err != nil`): the boolean carries the error's verdict
// onward, so the error is accounted, not merely observed.
func (s *scanner) compareConsumed(use ast.Node) bool {
	for _, anc := range s.df.Path(use) {
		bin, ok := anc.(*ast.BinaryExpr)
		if !ok {
			continue
		}
		switch s.df.ClassifyUse(bin) {
		case dataflow.UseReturned, dataflow.UseAssigned, dataflow.UseCallArg:
			return true
		}
		return false
	}
	return false
}

// guardedBranchCharges reports whether the nil comparison use sits in
// leads to a branch containing a counter charge: an increment or
// compound assignment on a struct field.
func (s *scanner) guardedBranchCharges(use ast.Node) bool {
	for _, anc := range s.df.Path(use) {
		ifs, ok := anc.(*ast.IfStmt)
		if !ok {
			continue
		}
		if branchCharges(ifs.Body) || (ifs.Else != nil && branchCharges(ifs.Else)) {
			return true
		}
		return false
	}
	return false
}

// branchCharges reports whether a statement subtree increments or
// compound-assigns a struct field — the shape of a counter charge.
func branchCharges(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.IncDecStmt:
			if st.Tok == token.INC && isFieldExpr(st.X) {
				found = true
			}
		case *ast.AssignStmt:
			if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
				for _, l := range st.Lhs {
					if isFieldExpr(l) {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

func isFieldExpr(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok
}

func (s *scanner) reportObservedOnly(call *ast.CallExpr, name string) {
	s.pass.Reportf(call.Pos(),
		"error from %s is nil-checked but never returned, consumed, or charged to a counter; account for it or justify with //lint:allow errsink <reason>", name)
}

// tracked reports whether the callee belongs to one of the configured
// accounting seams, matching interface methods by implementation too:
// a concrete method satisfying a tracked interface method is tracked.
func (s *scanner) tracked(callee *types.Func) bool {
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	recv := callee.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	recvName := recvTypeName(recv.Type())
	for _, src := range s.sources {
		if !strings.HasSuffix(callee.Pkg().Path(), src.PkgSuffix) {
			continue
		}
		if recvName != src.Type && !implementsNamed(recv.Type(), callee.Pkg(), src.Type) {
			continue
		}
		if src.Methods == nil {
			return true
		}
		for _, m := range src.Methods {
			if callee.Name() == m {
				return true
			}
		}
	}
	return false
}

// implementsNamed reports whether t implements the interface named
// ifaceName in pkg (so a call through a concrete *MemDevice is tracked
// like one through the flash.Device interface).
func implementsNamed(t types.Type, pkg *types.Package, ifaceName string) bool {
	obj := pkg.Scope().Lookup(ifaceName)
	if obj == nil {
		return false
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, iface)
}

// exempt reports callees whose errors carry no accounting weight.
func (s *scanner) exempt(callee *types.Func) bool {
	if callee == nil {
		return false // calls through function values stay checked
	}
	if callee.Pkg() != nil && exemptPkgs[callee.Pkg().Path()] {
		return true
	}
	if recv := callee.Type().(*types.Signature).Recv(); recv != nil {
		if callee.Pkg() != nil && exemptTypes[callee.Pkg().Path()+"."+recvTypeName(recv.Type())] {
			return true
		}
	}
	return false
}

// calleeWithErrorResult resolves a call's callee and reports whether
// the callee's last result is an error; nres is the result count.
// Calls through untyped function values (nil callee) are classified by
// signature alone.
func calleeWithErrorResult(info *types.Info, call *ast.CallExpr) (callee *types.Func, lastIsErr bool, nres int) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = info.Uses[fun.Sel].(*types.Func)
	}
	tv, ok := info.Types[call.Fun]
	if !ok {
		return callee, false, 0
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return callee, false, 0 // conversion or builtin
	}
	res := sig.Results()
	if res.Len() == 0 {
		return callee, false, 0
	}
	last := res.At(res.Len() - 1).Type()
	return callee, isErrorType(last), res.Len()
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// errLHS finds the assignment target bound to the call's error result.
func errLHS(assign *ast.AssignStmt, call *ast.CallExpr, nres int) ast.Expr {
	// Tuple form: a, err := f(). The call is the sole RHS; the error is
	// the last LHS.
	if len(assign.Rhs) == 1 && assign.Rhs[0] == call {
		if len(assign.Lhs) == nres {
			return assign.Lhs[nres-1]
		}
		return nil
	}
	// Parallel form: x, y := f(), g() — single-result calls line up by
	// position.
	if nres == 1 && len(assign.Lhs) == len(assign.Rhs) {
		for i, rhs := range assign.Rhs {
			if rhs == call {
				return assign.Lhs[i]
			}
		}
	}
	return nil
}

func calleeName(callee *types.Func) string {
	if callee == nil {
		return "call"
	}
	if recv := callee.Type().(*types.Signature).Recv(); recv != nil {
		if n := recvTypeName(recv.Type()); n != "" {
			return n + "." + callee.Name()
		}
	}
	if callee.Pkg() != nil {
		return callee.Pkg().Name() + "." + callee.Name()
	}
	return callee.Name()
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
