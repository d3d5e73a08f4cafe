package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// rawSpawn is a `go` statement before its body's signals are mapped
// into the spawner's frame.
type rawSpawn struct {
	pos    token.Pos
	callee string      // node key or external ID, "" if unresolvable
	node   *Node       // resolved body node, nil for externals
	args   []SourceSet // receiver-first argument alias sets
}

// callInfo is a resolved call site, shared between the effect walker
// and the pure alias/taint queries so the three agree on targets.
type callInfo struct {
	conversion bool
	builtin    string
	node       *Node       // resolved internal callee
	litNode    *Node       // set when the call target is a literal directly
	extFn      *types.Func // external function object
	extID      string
	ifaceID    string // interface-method or func-value ID, "" otherwise
	args       []ast.Expr
}

// id returns the best available callee identifier for reporting.
func (c *callInfo) id() string {
	switch {
	case c.node != nil:
		return c.node.Key
	case c.extID != "":
		return c.extID
	case c.ifaceID != "":
		return c.ifaceID
	case c.builtin != "":
		return "builtin." + c.builtin
	}
	return ""
}

// evalPass evaluates one node: an abstract interpretation of its body
// against the current callee summaries. The alias/taint maps grow
// monotonically across local iterations until stable, so chained
// assignments converge regardless of statement order.
type evalPass struct {
	g       *Graph
	n       *Node
	collect bool

	alias   map[types.Object]SourceSet
	unord   map[types.Object]Origin
	sorted  map[types.Object]bool
	changed bool

	sum Summary

	// Collected facts (last local iteration wins; the maps above are
	// stable by then).
	joins      []Join
	ctxReturns []CtxReturn
	uses       []UnorderedUse
	spawns     []rawSpawn

	// held is the lock set at the current program point, maintained in
	// syntactic statement order and reset each local round.
	held []heldEntry
	// Lock facts collected on the last round.
	lockEdges     []LockEdge
	fieldAccesses []FieldAccess
	heldBlocks    []HeldBlock
	lockedCalls   []LockedCall

	deferDepth int
	guardSel   []token.Pos // ctx-guarded regions: NoPos for if, select pos for comm clauses
	commSelect token.Pos   // select pos while walking a comm statement
}

// localRounds bounds per-node alias iteration; assignment chains
// longer than this are beyond any code in the module.
const localRounds = 8

func (g *Graph) evalNode(n *Node, collect bool) Summary {
	p := &evalPass{
		g:       g,
		n:       n,
		collect: collect,
		alias:   make(map[types.Object]SourceSet),
		unord:   make(map[types.Object]Origin),
		sorted:  make(map[types.Object]bool),
	}
	for i := 0; i < localRounds; i++ {
		p.sum = Summary{
			ParamWrites:      make(map[int][]Site),
			GlobalWrites:     make(map[string][]Site),
			FreeWrites:       make(map[types.Object][]Site),
			UnorderedResults: make(map[int]Origin),
			ParamFlows:       make(map[int]map[int]bool),
			LockAcquires:     make(map[LockClass][]LockSite),
		}
		p.joins = nil
		p.ctxReturns = nil
		p.uses = nil
		p.spawns = nil
		p.held = nil
		p.lockEdges = nil
		p.fieldAccesses = nil
		p.heldBlocks = nil
		p.lockedCalls = nil
		p.changed = false
		p.walkStmt(n.body)
		p.foldImplicitLits()
		// Locks still held at the end of the body escape the frame
		// unless a deferred unlock cancels them.
		for _, h := range p.held {
			if !h.deferRelease {
				p.sum.ExitHeld = addHeldLock(p.sum.ExitHeld, h.lock)
			}
		}
		if !p.changed {
			break
		}
	}
	if collect {
		n.Joins = p.joins
		n.CtxReturns = p.ctxReturns
		n.UnorderedUses = p.uses
		n.spawnsRaw = p.spawns
		n.LockEdges = p.lockEdges
		n.FieldAccesses = p.fieldAccesses
		n.HeldBlocks = p.heldBlocks
		n.LockedCalls = p.lockedCalls
	}
	return p.sum
}

// ---- statement walking ----

func (p *evalPass) walkStmt(s ast.Stmt) {
	switch v := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range v.List {
			p.walkStmt(st)
		}
	case *ast.ExprStmt:
		p.walkExpr(v.X)
	case *ast.AssignStmt:
		p.handleAssign(v)
	case *ast.GoStmt:
		p.handleGo(v)
	case *ast.DeferStmt:
		p.deferDepth++
		p.handleCall(v.Call, callCtx{deferred: true})
		p.deferDepth--
	case *ast.ReturnStmt:
		p.handleReturn(v)
	case *ast.IfStmt:
		p.walkStmt(v.Init)
		p.walkExpr(v.Cond)
		if p.isCtxGuard(v.Cond) {
			p.guardSel = append(p.guardSel, token.NoPos)
			p.walkStmt(v.Body)
			p.guardSel = p.guardSel[:len(p.guardSel)-1]
		} else {
			p.walkStmt(v.Body)
		}
		p.walkStmt(v.Else)
	case *ast.ForStmt:
		p.walkStmt(v.Init)
		p.walkExpr(v.Cond)
		p.walkStmt(v.Post)
		p.walkStmt(v.Body)
	case *ast.RangeStmt:
		p.handleRange(v)
	case *ast.SwitchStmt:
		p.walkStmt(v.Init)
		p.walkExpr(v.Tag)
		p.walkStmt(v.Body)
	case *ast.TypeSwitchStmt:
		p.walkStmt(v.Init)
		p.walkStmt(v.Assign)
		p.walkStmt(v.Body)
	case *ast.CaseClause:
		for _, e := range v.List {
			p.walkExpr(e)
		}
		for _, st := range v.Body {
			p.walkStmt(st)
		}
	case *ast.SelectStmt:
		p.handleSelect(v)
	case *ast.CommClause:
		// Reached only via handleSelect, which walks comm and body
		// itself.
	case *ast.SendStmt:
		p.handleSend(v)
	case *ast.IncDecStmt:
		p.walkExpr(v.X)
		p.writeTo(v.X, v.Pos())
	case *ast.DeclStmt:
		gd, ok := v.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			p.handleValueSpec(vs)
		}
	case *ast.LabeledStmt:
		p.walkStmt(v.Stmt)
	}
}

func (p *evalPass) handleSelect(v *ast.SelectStmt) {
	// A select with a default clause never blocks; without one, the
	// select statement itself is the blocking operation (its individual
	// comm clauses are not counted again).
	hasDefault := false
	for _, cl := range v.Body.List {
		if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		p.addBlocking(Site{Pos: v.Pos(), Desc: "select without default"})
	}
	for _, cl := range v.Body.List {
		comm, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		ctxGuard := comm.Comm != nil && p.isCtxDoneComm(comm.Comm)
		p.commSelect = v.Pos()
		p.walkStmt(comm.Comm)
		p.commSelect = token.NoPos
		if ctxGuard {
			p.guardSel = append(p.guardSel, v.Pos())
		}
		for _, st := range comm.Body {
			p.walkStmt(st)
		}
		if ctxGuard {
			p.guardSel = p.guardSel[:len(p.guardSel)-1]
		}
	}
}

func (p *evalPass) handleSend(v *ast.SendStmt) {
	p.walkExpr(v.Chan)
	p.walkExpr(v.Value)
	for src := range p.exprAlias(v.Chan) {
		p.addSignal(Signal{Src: src, Kind: SigSend, Pos: v.Pos()})
	}
	// A send blocks unless it is a select comm (the select is the
	// blocking op then) or the channel is known buffered.
	if p.commSelect == token.NoPos && !p.channelKnownBuffered(v.Chan) {
		p.addBlocking(Site{Pos: v.Pos(), Desc: "channel send"})
	}
}

func (p *evalPass) handleValueSpec(vs *ast.ValueSpec) {
	for _, e := range vs.Values {
		p.walkExpr(e)
	}
	if len(vs.Values) == 0 {
		return
	}
	multi := len(vs.Names) > 1 && len(vs.Values) == 1
	for i, name := range vs.Names {
		var srcs SourceSet
		var o *Origin
		if multi {
			srcs, o = p.resultAlias(vs.Values[0], i), p.resultUnord(vs.Values[0], i)
		} else if i < len(vs.Values) {
			srcs, o = p.exprAlias(vs.Values[i]), p.exprUnord(vs.Values[i])
		}
		p.bindIdent(name, srcs, o, vs.Values, i)
	}
}

func (p *evalPass) handleAssign(a *ast.AssignStmt) {
	for _, e := range a.Rhs {
		p.walkExpr(e)
	}
	multi := len(a.Lhs) > 1 && len(a.Rhs) == 1
	for i, lhs := range a.Lhs {
		var srcs SourceSet
		var o *Origin
		if multi {
			srcs, o = p.resultAlias(a.Rhs[0], i), p.resultUnord(a.Rhs[0], i)
		} else if i < len(a.Rhs) {
			srcs, o = p.exprAlias(a.Rhs[i]), p.exprUnord(a.Rhs[i])
		}
		if o != nil && commutativeAssign(a.Tok) && isIntegral(p.typeOf(lhs)) {
			o = nil // commutative integer accumulation is order-safe
		}
		if id, ok := unparen(lhs).(*ast.Ident); ok {
			rhs := a.Rhs
			p.bindIdent(id, srcs, o, rhs, i)
			continue
		}
		p.walkExpr(lhs)
		p.writeTo(lhs, a.TokPos)
		if o != nil {
			p.injectUnord(lhs, *o)
		}
	}
}

// bindIdent merges alias sources and order taint into a simple-ident
// binding, and tracks buffered-channel makes.
func (p *evalPass) bindIdent(id *ast.Ident, srcs SourceSet, o *Origin, rhs []ast.Expr, i int) {
	if id.Name == "_" {
		return
	}
	obj := p.objectOf(id)
	if obj == nil {
		return
	}
	p.recordDirectStore(obj, Site{Pos: id.Pos(), Desc: "writes " + id.Name})
	if len(srcs) > 0 {
		set := p.alias[obj]
		if set == nil {
			set = make(SourceSet)
			p.alias[obj] = set
		}
		if set.addAll(srcs) {
			p.changed = true
		}
	}
	if o != nil {
		if _, had := p.unord[obj]; !had {
			p.unord[obj] = *o
			p.changed = true
		}
	}
	if i < len(rhs) {
		if call, ok := unparen(rhs[i]).(*ast.CallExpr); ok && p.isBufferedMake(call) {
			p.n.Buffered[obj] = true
		}
	}
}

// isBufferedMake matches make(chan T, n): sends on such channels do
// not block the sender.
func (p *evalPass) isBufferedMake(call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if b, ok := p.objectOf(id).(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	t := p.typeOf(call)
	if t == nil {
		return false
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

func (p *evalPass) handleRange(r *ast.RangeStmt) {
	p.walkExpr(r.X)
	t := p.typeOf(r.X)
	if t == nil {
		p.walkStmt(r.Body)
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Map:
		origin := Origin{Pos: r.Pos()}
		p.taintRangeVar(r.Key, origin, p.exprAlias(r.X), pointerish(u.Key()))
		p.taintRangeVar(r.Value, origin, p.exprAlias(r.X), pointerish(u.Elem()))
	case *types.Slice:
		p.aliasRangeVar(r.Value, p.exprAlias(r.X), pointerish(u.Elem()))
	case *types.Array:
		p.aliasRangeVar(r.Value, p.exprAlias(r.X), pointerish(u.Elem()))
	case *types.Pointer:
		if arr, ok := u.Elem().Underlying().(*types.Array); ok {
			p.aliasRangeVar(r.Value, p.exprAlias(r.X), pointerish(arr.Elem()))
		}
	case *types.Chan:
		for src := range p.exprAlias(r.X) {
			p.addJoin(Join{Src: src, Pos: r.Pos()})
		}
		p.addBlocking(Site{Pos: r.Pos(), Desc: "ranges over channel"})
	}
	p.walkStmt(r.Body)
}

// taintRangeVar marks a map-range loop variable order-tainted and, if
// the element type can alias, carries the container's aliases.
func (p *evalPass) taintRangeVar(e ast.Expr, o Origin, container SourceSet, aliases bool) {
	if e == nil {
		return
	}
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		p.writeTo(e, e.Pos())
		p.injectUnord(e, o)
		return
	}
	if id.Name == "_" {
		return
	}
	obj := p.objectOf(id)
	if obj == nil {
		return
	}
	if _, had := p.unord[obj]; !had {
		p.unord[obj] = o
		p.changed = true
	}
	if aliases {
		p.mergeAlias(obj, container)
	}
}

func (p *evalPass) aliasRangeVar(e ast.Expr, container SourceSet, aliases bool) {
	if e == nil || !aliases {
		return
	}
	id, ok := unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if obj := p.objectOf(id); obj != nil {
		p.mergeAlias(obj, container)
	}
}

func (p *evalPass) mergeAlias(obj types.Object, srcs SourceSet) {
	if len(srcs) == 0 {
		return
	}
	set := p.alias[obj]
	if set == nil {
		set = make(SourceSet)
		p.alias[obj] = set
	}
	if set.addAll(srcs) {
		p.changed = true
	}
}

func (p *evalPass) handleReturn(r *ast.ReturnStmt) {
	if len(p.guardSel) > 0 && p.collect {
		p.ctxReturns = append(p.ctxReturns, CtxReturn{
			Pos:      r.Pos(),
			SelectID: p.guardSel[len(p.guardSel)-1],
		})
	}
	results := r.Results
	if len(results) == 1 && p.n.Sig.Results().Len() > 1 {
		// return f() — multi-value passthrough.
		if call, ok := unparen(results[0]).(*ast.CallExpr); ok {
			p.walkExpr(call)
			for i := 0; i < p.n.Sig.Results().Len(); i++ {
				if o := p.resultUnord(call, i); o != nil {
					p.recordResultUnord(i, *o, call.Pos(), nil)
				}
			}
			return
		}
	}
	for i, e := range results {
		p.walkExpr(e)
		for src := range p.exprAlias(e) {
			if src.Kind == SrcParam {
				m := p.sum.ParamFlows[src.Param]
				if m == nil {
					m = make(map[int]bool)
					p.sum.ParamFlows[src.Param] = m
				}
				m[i] = true
			}
		}
		if o := p.exprUnord(e); o != nil {
			p.recordResultUnord(i, *o, e.Pos(), p.typeOf(e))
		}
	}
	if len(results) == 0 {
		// Naked return: named results carry whatever they hold.
		res := p.n.Sig.Results()
		for i := 0; i < res.Len(); i++ {
			obj := res.At(i)
			named := p.namedResultObj(obj.Name(), i)
			if named == nil {
				continue
			}
			for src := range p.classify(named) {
				if src.Kind == SrcParam {
					m := p.sum.ParamFlows[src.Param]
					if m == nil {
						m = make(map[int]bool)
						p.sum.ParamFlows[src.Param] = m
					}
					m[i] = true
				}
			}
			if o, ok := p.unord[named]; ok && !p.sorted[named] {
				p.recordResultUnord(i, o, r.Pos(), named.Type())
			}
		}
	}
}

// namedResultObj finds the object for a named result in this node's
// own type-checking universe by scanning the declaration's result
// field names.
func (p *evalPass) namedResultObj(name string, _ int) types.Object {
	if name == "" || p.n.Decl == nil || p.n.Decl.Type.Results == nil {
		return nil
	}
	for _, f := range p.n.Decl.Type.Results.List {
		for _, id := range f.Names {
			if id.Name == name {
				return p.objectOf(id)
			}
		}
	}
	return nil
}

func (p *evalPass) recordResultUnord(i int, o Origin, pos token.Pos, t types.Type) {
	if _, had := p.sum.UnorderedResults[i]; !had {
		p.sum.UnorderedResults[i] = o
	}
	if p.collect {
		p.uses = append(p.uses, UnorderedUse{
			Kind:   UseReturn,
			Pos:    pos,
			Origin: o,
			Result: i,
			Type:   t,
		})
	}
}

func (p *evalPass) handleGo(g *ast.GoStmt) {
	call := g.Call
	info := p.resolveCall(call)
	if info.litNode != nil {
		p.n.goLits[info.litNode.Lit] = true
	}
	p.walkCallOperands(call, info)
	// The goroutine's writes still happen; its signals and joins do
	// not fold into the spawner's synchronous frame.
	p.applyCallEffects(call, info, callCtx{viaGo: true})
	if !p.collect {
		return
	}
	rs := rawSpawn{pos: g.Pos(), callee: info.id(), node: info.node}
	if info.litNode != nil {
		rs.node = info.litNode
		rs.callee = info.litNode.Key
	}
	if rs.node != nil {
		// The goroutine body starts with no inherited locks: record the
		// call edge with an empty held set so guard inference treats the
		// spawn as an unguarded entry point.
		p.lockedCalls = append(p.lockedCalls, LockedCall{Callee: rs.node.Key, Pos: g.Pos()})
	}
	if rs.node != nil {
		for _, a := range info.args {
			rs.args = append(rs.args, p.exprAlias(a))
		}
	}
	p.spawns = append(p.spawns, rs)
}

// ---- expression walking (effects) ----

// walkExpr performs the effects of evaluating e: calls, receives,
// nested literals. It does not compute values; exprAlias/exprUnord do.
func (p *evalPass) walkExpr(e ast.Expr) {
	switch v := e.(type) {
	case nil:
	case *ast.CallExpr:
		p.handleCall(v, callCtx{})
	case *ast.FuncLit:
		// A referenced literal is a child node; its free-variable
		// effects fold in foldImplicitLits.
	case *ast.UnaryExpr:
		p.walkExpr(v.X)
		if v.Op == token.ARROW {
			for src := range p.exprAlias(v.X) {
				p.addJoin(Join{
					Src:      src,
					Pos:      v.Pos(),
					Deferred: p.deferDepth > 0,
					SelectID: p.commSelect,
				})
			}
			// A receive blocks until a value arrives, buffered or not,
			// unless it is a select comm.
			if p.commSelect == token.NoPos {
				p.addBlocking(Site{Pos: v.Pos(), Desc: "channel receive"})
			}
		}
	case *ast.BinaryExpr:
		p.walkExpr(v.X)
		p.walkExpr(v.Y)
	case *ast.ParenExpr:
		p.walkExpr(v.X)
	case *ast.StarExpr:
		p.walkExpr(v.X)
	case *ast.SelectorExpr:
		p.walkExpr(v.X)
		p.recordFieldAccess(v, false)
	case *ast.IndexExpr:
		p.walkExpr(v.X)
		p.walkExpr(v.Index)
	case *ast.IndexListExpr:
		p.walkExpr(v.X)
	case *ast.SliceExpr:
		p.walkExpr(v.X)
		p.walkExpr(v.Low)
		p.walkExpr(v.High)
		p.walkExpr(v.Max)
	case *ast.TypeAssertExpr:
		p.walkExpr(v.X)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				p.walkExpr(kv.Key)
				p.walkExpr(kv.Value)
				continue
			}
			p.walkExpr(el)
		}
	case *ast.KeyValueExpr:
		p.walkExpr(v.Key)
		p.walkExpr(v.Value)
	}
}

type callCtx struct {
	viaGo    bool
	deferred bool
}

// resolveCall classifies a call site. Pure: usable from both the
// effect walker and the value queries.
func (p *evalPass) resolveCall(call *ast.CallExpr) callInfo {
	info := callInfo{args: call.Args}
	if tv, ok := p.n.Unit.Info.Types[call.Fun]; ok && tv.IsType() {
		info.conversion = true
		return info
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.FuncLit:
		info.litNode = p.g.LitNode(fun)
		if info.litNode != nil {
			info.node = info.litNode
		}
		return info
	case *ast.Ident:
		switch obj := p.objectOf(fun).(type) {
		case *types.Builtin:
			info.builtin = obj.Name()
		case *types.Func:
			p.resolveFunc(&info, obj, nil)
		case *types.Var:
			info.ifaceID = "func()" // func-value call: effect-free
		}
		return info
	case *ast.SelectorExpr:
		if sel, ok := p.n.Unit.Info.Selections[fun]; ok {
			fn, isFn := sel.Obj().(*types.Func)
			if !isFn {
				info.ifaceID = "func()" // func-typed field call
				return info
			}
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				info.ifaceID = "iface." + fn.Name()
				if pkg, name, ok := namedTypeOf(sel.Recv()); ok {
					info.ifaceID = pkg + "." + name + "." + fn.Name()
				}
				return info
			}
			p.resolveFunc(&info, fn, fun.X)
			return info
		}
		// Package-qualified: pkg.Func or pkg.Var().
		switch obj := p.objectOf(fun.Sel).(type) {
		case *types.Func:
			p.resolveFunc(&info, obj, nil)
		case *types.Var:
			info.ifaceID = "func()"
		}
		return info
	}
	return info
}

// resolveFunc fills info for a named function or method; recv is the
// receiver expression for method calls (nil otherwise).
func (p *evalPass) resolveFunc(info *callInfo, fn *types.Func, recv ast.Expr) {
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	if recv != nil {
		info.args = append([]ast.Expr{recv}, info.args...)
	}
	if p.g.internal[pkgPath] {
		info.node = p.g.nodes[FuncKey(fn)]
		if info.node != nil {
			return
		}
	}
	info.extFn = fn
	info.extID = externalID(fn)
}

// handleCall walks a call's operands and applies its effects.
func (p *evalPass) handleCall(call *ast.CallExpr, cc callCtx) {
	info := p.resolveCall(call)
	if info.litNode != nil {
		p.n.goLits[info.litNode.Lit] = true
	}
	p.walkCallOperands(call, info)
	if info.node != nil {
		// Record the call with the entry held set (before callee lock
		// effects fold in); a solver entry is blocking by definition.
		if p.collect {
			p.lockedCalls = append(p.lockedCalls, LockedCall{
				Callee: info.node.Key,
				Held:   p.heldSnapshot(),
				Pos:    call.Pos(),
			})
		}
		if isSolverEntryKey(info.node.Key) {
			p.addBlocking(Site{Pos: call.Pos(), Desc: "solver entry " + info.node.Key})
		}
	}
	p.applyCallEffects(call, info, cc)
	if p.collect {
		p.recordCallArgUses(call, info)
	}
}

// walkCallOperands walks each operand of a call exactly once: the
// receiver-prepended argument list when a receiver was folded in,
// otherwise the selector base (unless it is a package qualifier) plus
// the plain arguments.
func (p *evalPass) walkCallOperands(call *ast.CallExpr, info callInfo) {
	if len(info.args) > len(call.Args) {
		for _, a := range info.args {
			p.walkExpr(a)
		}
		return
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && !p.isPkgQualified(sel) {
		p.walkExpr(sel.X)
	}
	for _, a := range call.Args {
		p.walkExpr(a)
	}
}

// recordCallArgUses records order-tainted arguments at any identified
// call site (receiver-first indexing for methods).
func (p *evalPass) recordCallArgUses(call *ast.CallExpr, info callInfo) {
	id := info.id()
	if id == "" || info.conversion || info.builtin != "" {
		return
	}
	for _, a := range info.args {
		if o := p.exprUnord(a); o != nil {
			p.uses = append(p.uses, UnorderedUse{
				Kind:     UseCallArg,
				Pos:      a.Pos(),
				Origin:   *o,
				Type:     p.typeOf(a),
				CalleeID: id,
			})
		}
	}
}

// applyCallEffects folds the callee's summary (or external model)
// into this pass.
func (p *evalPass) applyCallEffects(call *ast.CallExpr, info callInfo, cc callCtx) {
	switch {
	case info.conversion:
		return
	case info.builtin != "":
		p.applyBuiltin(call, info.builtin)
		return
	case info.node != nil:
		p.applySummary(info.node, info.args, cc, call.Pos())
		return
	case info.extFn != nil:
		p.applyExternal(call, info, cc)
		return
	case info.ifaceID != "":
		if isBlockingIface(info.ifaceID) {
			p.addBlocking(Site{Pos: call.Pos(), Desc: info.ifaceID})
		}
		return
	}
}

func (p *evalPass) applyBuiltin(call *ast.CallExpr, name string) {
	switch name {
	case "copy":
		if len(call.Args) == 2 {
			for src := range p.exprAlias(call.Args[0]) {
				p.recordWriteSrc(src, Site{Pos: call.Pos(), Desc: "copy into " + types.ExprString(call.Args[0])})
			}
			if o := p.exprUnord(call.Args[1]); o != nil {
				p.injectUnord(call.Args[0], *o)
			}
		}
	case "close":
		if len(call.Args) == 1 {
			for src := range p.exprAlias(call.Args[0]) {
				p.addSignal(Signal{Src: src, Kind: SigClose, Pos: call.Pos()})
			}
		}
	case "delete":
		// No alias effects, but deleting a map entry mutates the map: a
		// guarded-fields write when the map is a struct field.
		if len(call.Args) > 0 {
			if sel := fieldSelIn(unparen(call.Args[0])); sel != nil {
				p.recordFieldAccess(sel, true)
			}
		}
	case "append", "len", "cap", "make", "new", "panic", "print", "println", "recover", "min", "max", "clear":
		// No tracked effects; append's value flow is handled in
		// exprAlias/exprUnord.
	}
}

func (p *evalPass) applyExternal(call *ast.CallExpr, info callInfo, cc callCtx) {
	id := info.extID
	if op, ok := mutexMethod(info.extFn); ok && len(info.args) > 0 && !cc.viaGo {
		class, classOK := p.lockClassOf(info.args[0])
		if !classOK {
			return
		}
		switch op {
		case "Lock":
			p.lockAcquire(class, false, call.Pos(), "acquires "+string(class))
		case "RLock":
			p.lockAcquire(class, true, call.Pos(), "read-acquires "+string(class))
		case "Unlock":
			p.lockRelease(HeldLock{Class: class}, cc.deferred)
		case "RUnlock":
			p.lockRelease(HeldLock{Class: class, Read: true}, cc.deferred)
		}
		return
	}
	if sortExternals[id] && len(info.args) > 0 {
		arg0 := info.args[0]
		for _, obj := range p.rootObjs(arg0) {
			if !p.sorted[obj] {
				p.sorted[obj] = true
				p.changed = true
			}
		}
		for src := range p.exprAlias(arg0) {
			p.recordWriteSrc(src, Site{Pos: call.Pos(), Desc: "reordered by " + id})
		}
		return
	}
	if isOnceDo(info.extFn) && len(info.args) == 2 {
		// args[0] is the Once receiver; args[1] the init function. A
		// literal passed here is the sanctioned lazy-init pattern: its
		// effects are not folded.
		if lit, ok := unparen(info.args[1]).(*ast.FuncLit); ok {
			p.n.goLits[lit] = true
		}
		return
	}
	if isWaitGroupMethod(info.extFn, "Done") && len(info.args) > 0 && !cc.viaGo {
		for src := range p.exprAlias(info.args[0]) {
			p.addSignal(Signal{Src: src, Kind: SigDone, Pos: call.Pos()})
		}
		return
	}
	if isWaitGroupMethod(info.extFn, "Wait") && len(info.args) > 0 && !cc.viaGo {
		for src := range p.exprAlias(info.args[0]) {
			p.addJoin(Join{
				Src:      src,
				Pos:      call.Pos(),
				Deferred: cc.deferred || p.deferDepth > 0,
				SelectID: p.commSelect,
			})
		}
		p.addBlocking(Site{Pos: call.Pos(), Desc: "sync.WaitGroup.Wait"})
		return
	}
	if isBlockingExternal(id) && !cc.viaGo {
		p.addBlocking(Site{Pos: call.Pos(), Desc: id})
	}
	// Everything else in the standard library: no writes, no alias
	// laundering, no goroutine facts (order taint flows through
	// results via exprUnord).
}

// applySummary folds an internal callee's summary into this frame,
// mapping parameter-indexed facts through the argument expressions.
func (p *evalPass) applySummary(callee *Node, args []ast.Expr, cc callCtx, callPos token.Pos) {
	argAlias := func(i int) SourceSet {
		// Variadic overflow maps onto the last parameter.
		if i >= len(args) {
			return nil
		}
		return p.exprAlias(args[i])
	}
	mapParam := func(pi int) SourceSet {
		if pi < len(args) {
			return argAlias(pi)
		}
		if len(callee.params) > 0 && pi == len(callee.params)-1 && callee.Sig.Variadic() {
			// f(a, b, c...) style spreads: union every trailing arg.
			out := make(SourceSet)
			for i := pi; i < len(args); i++ {
				out.addAll(argAlias(i))
			}
			return out
		}
		return nil
	}
	for pi, sites := range callee.Sum.ParamWrites {
		for src := range mapParam(pi) {
			for _, s := range sites {
				p.recordWriteSrc(src, Site{Pos: callPos, Desc: s.Desc + " (via " + callee.Key + ")"})
			}
		}
	}
	for ref, sites := range callee.Sum.GlobalWrites {
		for _, s := range sites {
			p.addGlobalSite(ref, Site{Pos: s.Pos, Desc: s.Desc})
		}
	}
	for obj, sites := range callee.Sum.FreeWrites {
		for src := range p.classify(obj) {
			for _, s := range sites {
				p.recordWriteSrc(src, s)
			}
		}
	}
	if cc.viaGo {
		return
	}
	// Lock effects, in execution order: releases the callee performs on
	// the caller's behalf first (the unlock-helper pattern — so a
	// re-acquire inside the callee does not read as a self-edge), then
	// acquisition edges against what remains held, then locks the
	// callee leaves held on exit.
	for _, hl := range callee.Sum.ExitReleased {
		p.lockRelease(hl, cc.deferred)
	}
	for _, class := range sortedLockClasses(callee.Sum.LockAcquires) {
		sites := callee.Sum.LockAcquires[class]
		if p.collect {
			for _, h := range p.held {
				p.addLockEdge(LockEdge{
					From: h.lock.Class,
					To:   class,
					Pos:  callPos,
					Desc: "via " + callee.Key,
				})
			}
		}
		read := len(sites) > 0 && sites[0].Read
		p.addLockSite(class, LockSite{
			Pos:  callPos,
			Desc: "acquires " + string(class) + " (via " + callee.Key + ")",
			Read: read,
		})
	}
	for _, hl := range callee.Sum.ExitHeld {
		p.held = append(p.held, heldEntry{lock: hl})
	}
	for _, b := range callee.Sum.Blocking {
		desc := b.Desc
		if i := strings.Index(desc, " (via "); i >= 0 {
			desc = desc[:i]
		}
		p.addBlocking(Site{Pos: callPos, Desc: desc + " (via " + callee.Key + ")"})
	}
	for _, sig := range callee.Sum.Signals {
		for _, src := range p.mapCalleeSrc(sig.Src, mapParam) {
			p.addSignal(Signal{Src: src, Kind: sig.Kind, Pos: callPos})
		}
	}
	for _, j := range callee.Sum.Joins {
		for _, src := range p.mapCalleeSrc(j.Src, mapParam) {
			p.addJoin(Join{
				Src:      src,
				Pos:      callPos,
				Deferred: cc.deferred || p.deferDepth > 0 || j.Deferred,
				SelectID: p.commSelect,
			})
		}
	}
}

// mapCalleeSrc translates a callee-frame source into caller-frame
// sources: params map through arguments, globals stay, frees classify
// against this frame (the callee is a child literal then).
func (p *evalPass) mapCalleeSrc(src Source, mapParam func(int) SourceSet) []Source {
	switch src.Kind {
	case SrcParam:
		var out []Source
		for s := range mapParam(src.Param) {
			out = append(out, s)
		}
		return out
	case SrcGlobal:
		return []Source{src}
	case SrcFree, SrcLocal:
		var out []Source
		for s := range p.classify(src.Obj) {
			out = append(out, s)
		}
		return out
	}
	return nil
}

// foldImplicitLits folds the free-variable effects of referenced-only
// child literals (not go'd, deferred, directly called, or passed to
// once.Do — those were handled at their use sites).
func (p *evalPass) foldImplicitLits() {
	for _, child := range p.n.children {
		if p.n.goLits[child.Lit] {
			continue
		}
		for obj, sites := range child.Sum.FreeWrites {
			for src := range p.classify(obj) {
				for _, s := range sites {
					p.recordWriteSrc(src, s)
				}
			}
		}
		for ref, sites := range child.Sum.GlobalWrites {
			for _, s := range sites {
				p.addGlobalSite(ref, s)
			}
		}
		for _, sig := range child.Sum.Signals {
			if sig.Src.Kind == SrcParam {
				continue
			}
			for _, src := range p.mapCalleeSrc(sig.Src, func(int) SourceSet { return nil }) {
				p.addSignal(Signal{Src: src, Kind: sig.Kind, Pos: sig.Pos})
			}
		}
		// Joins inside a merely referenced literal do not fold into the
		// summary (whether the callback runs is the consumer's choice),
		// but they do constitute a join path for this frame's spawns —
		// the returned-stop-closure pattern — so they join the facts.
		if p.collect {
			for _, j := range child.Sum.Joins {
				if j.Src.Kind == SrcParam {
					continue
				}
				for _, src := range p.mapCalleeSrc(j.Src, func(int) SourceSet { return nil }) {
					p.joins = append(p.joins, Join{Src: src, Pos: j.Pos, Deferred: j.Deferred})
				}
			}
		}
	}
}

// ---- writes ----

// writeTo records a write through lhs. A write is "shared" — visible
// outside this frame — iff the lvalue path crosses a pointer deref,
// slice/map index, or auto-dereferencing selector; writing a field of
// a local value struct is a local copy.
func (p *evalPass) writeTo(lhs ast.Expr, pos token.Pos) {
	if sel := fieldSelIn(unparen(lhs)); sel != nil {
		p.recordFieldAccess(sel, true)
	}
	root, shared := p.lvalueRoot(lhs)
	desc := "writes " + types.ExprString(lhs)
	if !shared {
		// Not shared through the path — but a direct store to a
		// global or captured variable is still visible outside this
		// frame (rebinding a parameter or local is not).
		for _, obj := range p.rootObjs(root) {
			p.recordDirectStore(obj, Site{Pos: pos, Desc: desc})
		}
		return
	}
	for src := range p.exprAlias(root) {
		p.recordWriteSrc(src, Site{Pos: pos, Desc: desc})
	}
}

// recordDirectStore records an assignment to the variable itself
// when that variable outlives the frame.
func (p *evalPass) recordDirectStore(obj types.Object, site Site) {
	if isGlobalVar(obj) {
		p.addGlobalSite(globalRef(obj), site)
		return
	}
	if p.isFreeVar(obj) {
		p.sum.FreeWrites[obj] = addSite(p.sum.FreeWrites[obj], site)
	}
}

// isFreeVar reports whether obj is a variable captured from an
// enclosing frame.
func (p *evalPass) isFreeVar(obj types.Object) bool {
	if _, isVar := obj.(*types.Var); !isVar {
		return false
	}
	for _, po := range p.n.params {
		if po == obj {
			return false
		}
	}
	return !isGlobalVar(obj) && !p.declaredLocally(obj)
}

// lvalueRoot walks to the base expression of an lvalue and reports
// whether the path makes the write shared.
func (p *evalPass) lvalueRoot(e ast.Expr) (ast.Expr, bool) {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return p.lvalueRoot(v.X)
	case *ast.StarExpr:
		r, _ := p.lvalueRoot(v.X)
		return r, true
	case *ast.SelectorExpr:
		if p.isPkgQualified(v) {
			// pkg.Var is its own root; rootObjs resolves it.
			return v, false
		}
		shared := false
		if t := p.typeOf(v.X); t != nil {
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				shared = true
			}
		}
		r, s2 := p.lvalueRoot(v.X)
		return r, shared || s2
	case *ast.IndexExpr:
		shared := false
		if t := p.typeOf(v.X); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map, *types.Pointer:
				shared = true
			}
		}
		r, s2 := p.lvalueRoot(v.X)
		return r, shared || s2
	}
	return e, false
}

// injectUnord taints the root object(s) of a written lvalue with
// order origin o — except map-entry writes, which are order-safe
// sinks, and histogram-style writes where only the index is tainted.
func (p *evalPass) injectUnord(lhs ast.Expr, o Origin) {
	if idx, ok := unparen(lhs).(*ast.IndexExpr); ok {
		if t := p.typeOf(idx.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				return
			}
		}
	}
	root, _ := p.lvalueRoot(lhs)
	for _, obj := range p.rootObjs(root) {
		if p.sorted[obj] {
			continue
		}
		if _, had := p.unord[obj]; !had {
			p.unord[obj] = o
			p.changed = true
		}
	}
}

// recordWriteSrc attributes one write site to a source. Local sources
// are invisible to callers; their aliases were already expanded by
// exprAlias.
func (p *evalPass) recordWriteSrc(src Source, site Site) {
	switch src.Kind {
	case SrcParam:
		p.sum.ParamWrites[src.Param] = addSite(p.sum.ParamWrites[src.Param], site)
	case SrcGlobal:
		p.addGlobalSite(src.Global, site)
	case SrcFree:
		p.sum.FreeWrites[src.Obj] = addSite(p.sum.FreeWrites[src.Obj], site)
	case SrcLocal:
		// Local memory: not caller-visible.
	}
}

func (p *evalPass) addGlobalSite(ref string, site Site) {
	p.sum.GlobalWrites[ref] = addSite(p.sum.GlobalWrites[ref], site)
}

// maxSites bounds per-key site lists; analyzers report each site, so
// a handful is plenty.
const maxSites = 16

func addSite(list []Site, s Site) []Site {
	for _, have := range list {
		if have.Pos == s.Pos {
			return list
		}
	}
	if len(list) >= maxSites {
		return list
	}
	return append(list, s)
}

// addSignal records a signal fact; only param/free/global sources are
// caller-foldable, but local sources matter for spawn resolution via
// the summary too (a goroutine literal signaling a spawner-local
// channel reports the channel as a free variable of the literal).
func (p *evalPass) addSignal(s Signal) {
	if s.Src.Kind == SrcLocal {
		return
	}
	for _, have := range p.sum.Signals {
		if have.Src == s.Src && have.Kind == s.Kind {
			return
		}
	}
	if len(p.sum.Signals) >= maxSites {
		return
	}
	p.sum.Signals = append(p.sum.Signals, s)
}

// addJoin records a join: into the collected facts (all sources) and
// into the summary (caller-foldable sources only).
func (p *evalPass) addJoin(j Join) {
	if p.collect {
		p.joins = append(p.joins, j)
	}
	if j.Src.Kind == SrcLocal {
		return
	}
	for _, have := range p.sum.Joins {
		if have.Src == j.Src && have.Deferred == j.Deferred {
			return
		}
	}
	if len(p.sum.Joins) >= maxSites {
		return
	}
	p.sum.Joins = append(p.sum.Joins, j)
}

// ---- value queries ----

// exprAlias returns the sources e's value may alias. Local variables
// contribute their identity plus everything in their alias set.
func (p *evalPass) exprAlias(e ast.Expr) SourceSet {
	out := make(SourceSet)
	p.aliasInto(e, out, 0)
	return out
}

const maxAliasDepth = 24

func (p *evalPass) aliasInto(e ast.Expr, out SourceSet, depth int) {
	if depth > maxAliasDepth {
		return
	}
	switch v := e.(type) {
	case *ast.Ident:
		obj := p.objectOf(v)
		if obj == nil {
			return
		}
		for src := range p.classify(obj) {
			out.add(src)
		}
	case *ast.SelectorExpr:
		if obj := p.qualifiedGlobal(v); obj != nil {
			out.add(Source{Kind: SrcGlobal, Global: globalRef(obj)})
			return
		}
		p.aliasInto(v.X, out, depth+1)
	case *ast.IndexExpr:
		p.aliasInto(v.X, out, depth+1)
	case *ast.IndexListExpr:
		p.aliasInto(v.X, out, depth+1)
	case *ast.SliceExpr:
		p.aliasInto(v.X, out, depth+1)
	case *ast.StarExpr:
		p.aliasInto(v.X, out, depth+1)
	case *ast.ParenExpr:
		p.aliasInto(v.X, out, depth+1)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			p.aliasInto(v.X, out, depth+1)
		}
	case *ast.TypeAssertExpr:
		p.aliasInto(v.X, out, depth+1)
	case *ast.CallExpr:
		p.callAliasInto(v, 0, out, depth)
	}
}

// callAliasInto adds the aliases of result `res` of a call.
func (p *evalPass) callAliasInto(call *ast.CallExpr, res int, out SourceSet, depth int) {
	info := p.resolveCall(call)
	switch {
	case info.conversion:
		if len(call.Args) == 1 {
			p.aliasInto(call.Args[0], out, depth+1)
		}
	case info.builtin == "append":
		if len(call.Args) > 0 {
			p.aliasInto(call.Args[0], out, depth+1)
		}
	case info.node != nil:
		for pi, results := range info.node.Sum.ParamFlows {
			if !results[res] {
				continue
			}
			if pi < len(info.args) {
				p.aliasInto(info.args[pi], out, depth+1)
			}
		}
	}
}

// resultAlias is exprAlias for result index i of a multi-value
// expression.
func (p *evalPass) resultAlias(e ast.Expr, i int) SourceSet {
	out := make(SourceSet)
	switch v := unparen(e).(type) {
	case *ast.CallExpr:
		p.callAliasInto(v, i, out, 0)
	case *ast.TypeAssertExpr:
		if i == 0 {
			p.aliasInto(v.X, out, 0)
		}
	case *ast.IndexExpr:
		if i == 0 {
			p.aliasInto(v.X, out, 0)
		}
	case *ast.UnaryExpr:
		// v, ok := <-ch: recv values untracked.
	}
	return out
}

// classify maps an object to its frame-relative sources: parameter,
// global, free, or local (locals expand through the alias map).
func (p *evalPass) classify(obj types.Object) SourceSet {
	out := make(SourceSet)
	if obj == nil {
		return out
	}
	for i, po := range p.n.params {
		if po == obj {
			out.add(Source{Kind: SrcParam, Param: i})
			return out
		}
	}
	if isGlobalVar(obj) {
		out.add(Source{Kind: SrcGlobal, Global: globalRef(obj)})
		return out
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return out
	}
	if p.declaredLocally(obj) {
		out.add(Source{Kind: SrcLocal, Obj: obj})
		out.addAll(p.alias[obj])
		return out
	}
	out.add(Source{Kind: SrcFree, Obj: obj})
	return out
}

// declaredLocally reports whether obj's declaration lies within this
// node's body (parameters are handled before this is consulted).
func (p *evalPass) declaredLocally(obj types.Object) bool {
	pos := obj.Pos()
	return pos >= p.n.body.Pos() && pos <= p.n.body.End()
}

// exprUnord reports the map-range origin e's value may carry, or nil.
func (p *evalPass) exprUnord(e ast.Expr) *Origin {
	return p.unordAt(e, 0, 0)
}

// resultUnord is exprUnord for result index i of a multi-value
// expression.
func (p *evalPass) resultUnord(e ast.Expr, i int) *Origin {
	if call, ok := unparen(e).(*ast.CallExpr); ok {
		return p.callUnord(call, i, 0)
	}
	if i == 0 {
		return p.exprUnord(e)
	}
	return nil
}

func (p *evalPass) unordAt(e ast.Expr, _ int, depth int) *Origin {
	if depth > maxAliasDepth {
		return nil
	}
	switch v := e.(type) {
	case *ast.Ident:
		obj := p.objectOf(v)
		if obj == nil || p.sorted[obj] {
			return nil
		}
		if o, ok := p.unord[obj]; ok {
			return &o
		}
		return nil
	case *ast.SelectorExpr:
		if p.qualifiedGlobal(v) != nil || p.isPkgQualified(v) {
			return nil
		}
		return p.unordAt(v.X, 0, depth+1)
	case *ast.IndexExpr:
		if o := p.unordAt(v.X, 0, depth+1); o != nil {
			return o
		}
		return p.unordAt(v.Index, 0, depth+1)
	case *ast.SliceExpr:
		return p.unordAt(v.X, 0, depth+1)
	case *ast.StarExpr:
		return p.unordAt(v.X, 0, depth+1)
	case *ast.ParenExpr:
		return p.unordAt(v.X, 0, depth+1)
	case *ast.UnaryExpr:
		if v.Op == token.ARROW {
			return nil
		}
		return p.unordAt(v.X, 0, depth+1)
	case *ast.BinaryExpr:
		if o := p.unordAt(v.X, 0, depth+1); o != nil {
			return o
		}
		return p.unordAt(v.Y, 0, depth+1)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if o := p.unordAt(el, 0, depth+1); o != nil {
				return o
			}
		}
		return nil
	case *ast.KeyValueExpr:
		if o := p.unordAt(v.Key, 0, depth+1); o != nil {
			return o
		}
		return p.unordAt(v.Value, 0, depth+1)
	case *ast.TypeAssertExpr:
		return p.unordAt(v.X, 0, depth+1)
	case *ast.CallExpr:
		return p.callUnord(v, 0, depth)
	}
	return nil
}

// callUnord reports the order taint of result `res` of a call.
func (p *evalPass) callUnord(call *ast.CallExpr, res int, depth int) *Origin {
	info := p.resolveCall(call)
	switch {
	case info.conversion:
		if len(call.Args) == 1 {
			return p.unordAt(call.Args[0], 0, depth+1)
		}
		return nil
	case info.builtin != "":
		switch info.builtin {
		case "append":
			for _, a := range call.Args {
				if o := p.unordAt(a, 0, depth+1); o != nil {
					return o
				}
			}
		}
		return nil
	case info.node != nil:
		if o, ok := info.node.Sum.UnorderedResults[res]; ok {
			return &o
		}
		// Alias passthrough: returning a tainted argument keeps its
		// taint.
		for pi, results := range info.node.Sum.ParamFlows {
			if results[res] && pi < len(info.args) {
				if o := p.unordAt(info.args[pi], 0, depth+1); o != nil {
					return o
				}
			}
		}
		return nil
	case info.extFn != nil:
		if sortExternals[info.extID] {
			return nil
		}
		for _, a := range info.args {
			if o := p.unordAt(a, 0, depth+1); o != nil {
				return o
			}
		}
		return nil
	default:
		// Interface methods and func values: pass taint through.
		for _, a := range info.args {
			if o := p.unordAt(a, 0, depth+1); o != nil {
				return o
			}
		}
		return nil
	}
}

// rootObjs lists the identifier objects at the base of an expression
// (descending conversions and slicing).
func (p *evalPass) rootObjs(e ast.Expr) []types.Object {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		if obj := p.objectOf(v); obj != nil {
			return []types.Object{obj}
		}
	case *ast.SelectorExpr:
		if obj := p.qualifiedGlobal(v); obj != nil {
			return []types.Object{obj}
		}
		return p.rootObjs(v.X)
	case *ast.IndexExpr:
		return p.rootObjs(v.X)
	case *ast.SliceExpr:
		return p.rootObjs(v.X)
	case *ast.StarExpr:
		return p.rootObjs(v.X)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return p.rootObjs(v.X)
		}
	case *ast.CallExpr:
		if tv, ok := p.n.Unit.Info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return p.rootObjs(v.Args[0])
		}
	}
	return nil
}

// ---- guards ----

// isCtxGuard recognizes cancellation conditions: ctx.Err() != nil,
// calls to a context-taking helper named "canceled", and
// errors.Is(err, context.Canceled)-style checks are left out on
// purpose — the check is about the solver's own cancellation branch.
func (p *evalPass) isCtxGuard(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Err" && p.isContextExpr(fun.X) {
				found = true
			}
		case *ast.Ident:
			if fun.Name == "canceled" && len(call.Args) > 0 && p.isContextExpr(call.Args[0]) {
				found = true
			}
		}
		return true
	})
	return found
}

// isCtxDoneComm recognizes `case <-ctx.Done():` comm statements.
func (p *evalPass) isCtxDoneComm(comm ast.Stmt) bool {
	var recv *ast.UnaryExpr
	switch v := comm.(type) {
	case *ast.ExprStmt:
		recv, _ = unparen(v.X).(*ast.UnaryExpr)
	case *ast.AssignStmt:
		if len(v.Rhs) == 1 {
			recv, _ = unparen(v.Rhs[0]).(*ast.UnaryExpr)
		}
	}
	if recv == nil || recv.Op != token.ARROW {
		return false
	}
	call, ok := unparen(recv.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done" && p.isContextExpr(sel.X)
}

// isContextExpr reports whether e has type context.Context.
func (p *evalPass) isContextExpr(e ast.Expr) bool {
	t := p.typeOf(e)
	if t == nil {
		return false
	}
	pkg, name, ok := namedTypeOf(t)
	return ok && pkg == "context" && name == "Context"
}

// ---- spawn resolution ----

// resolveSpawns maps each raw spawn's body signals and joins into the
// spawner's frame. Runs after the fact-collection pass, so body
// summaries are final.
func (g *Graph) resolveSpawns(n *Node) {
	for _, rs := range n.spawnsRaw {
		sp := Spawn{Pos: rs.pos, Callee: rs.callee}
		if rs.node != nil {
			for _, sig := range rs.node.Sum.Signals {
				for _, src := range mapSpawnSrc(sig.Src, rs.args, n) {
					sp.Signals = append(sp.Signals, Signal{Src: src, Kind: sig.Kind, Pos: sig.Pos})
				}
			}
			for _, j := range rs.node.Sum.Joins {
				for _, src := range mapSpawnSrc(j.Src, rs.args, n) {
					sp.BodyJoins = append(sp.BodyJoins, Join{Src: src, Pos: j.Pos, Deferred: j.Deferred})
				}
			}
		}
		n.Spawns = append(n.Spawns, sp)
	}
	n.spawnsRaw = nil
}

// mapSpawnSrc translates a goroutine-body source into the spawner's
// frame: body params map through the go-call arguments, globals stay,
// free variables classify against the spawner (keeping local identity
// so signals match joins on the same channel object).
func mapSpawnSrc(src Source, args []SourceSet, spawner *Node) []Source {
	switch src.Kind {
	case SrcParam:
		if src.Param < len(args) {
			var out []Source
			for s := range args[src.Param] {
				out = append(out, s)
			}
			return out
		}
		return nil
	case SrcGlobal:
		return []Source{src}
	case SrcFree, SrcLocal:
		obj := src.Obj
		for i, po := range spawner.params {
			if po == obj {
				return []Source{{Kind: SrcParam, Param: i}}
			}
		}
		if isGlobalVar(obj) {
			return []Source{{Kind: SrcGlobal, Global: globalRef(obj)}}
		}
		pos := obj.Pos()
		if pos >= spawner.body.Pos() && pos <= spawner.body.End() {
			return []Source{{Kind: SrcLocal, Obj: obj}}
		}
		return []Source{{Kind: SrcFree, Obj: obj}}
	}
	return nil
}

// ---- small helpers ----

func (p *evalPass) typeOf(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	return p.n.Unit.Info.TypeOf(e)
}

func (p *evalPass) objectOf(id *ast.Ident) types.Object {
	if obj := p.n.Unit.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.n.Unit.Info.Uses[id]
}

// qualifiedGlobal resolves pkgname.Var selectors to the variable
// object, nil otherwise.
func (p *evalPass) qualifiedGlobal(sel *ast.SelectorExpr) types.Object {
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	if _, isPkg := p.objectOf(id).(*types.PkgName); !isPkg {
		return nil
	}
	obj := p.objectOf(sel.Sel)
	if v, ok := obj.(*types.Var); ok && isGlobalVar(v) {
		return v
	}
	return nil
}

// isPkgQualified reports whether sel.X names an imported package.
func (p *evalPass) isPkgQualified(sel *ast.SelectorExpr) bool {
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := p.objectOf(id).(*types.PkgName)
	return isPkg
}

// isGlobalVar reports whether obj is a package-level variable.
func isGlobalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// globalRef renders the canonical "pkgpath.Name" reference for a
// package-level variable.
func globalRef(obj types.Object) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	return pkg + "." + obj.Name()
}

// commutativeAssign reports whether tok is an order-insensitive
// integer accumulation operator.
func commutativeAssign(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN,
		token.OR_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}

// isIntegral reports whether t is an integer type (commutative
// accumulation is exact for integers, not floats).
func isIntegral(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// pointerish reports whether values of t can alias tracked memory
// (pointers, slices, maps, channels, interfaces, functions).
func pointerish(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Interface, *types.Signature:
		return true
	}
	return false
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
