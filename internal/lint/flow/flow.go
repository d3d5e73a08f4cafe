// Package flow is the interprocedural dataflow engine behind the
// module-wide lint analyzers. solverpurity, detorder, goleak,
// guardedby, lockorder, and holdblock consume its fixed-point
// summaries and collected facts directly; hotalloc and mapstate use
// its call graph to walk transitive callees. Built with the standard
// library only (go/ast + go/types), it computes, over the non-test
// packages of the module:
//
//   - a call graph whose nodes are every function declaration and
//     function literal, with callees resolved across package
//     boundaries by a canonical "pkgpath.Recv.Name" key (packages are
//     type-checked independently against export data, so type-object
//     identity does not survive package boundaries — string keys do);
//   - a per-function summary: the set of parameters whose
//     pointer-reachable memory the function writes (directly or
//     through any callee), the package-level variables it mutates,
//     map-iteration-order taint carried by each result, parameter→
//     result alias flows, goroutine signal/join facts, and lock facts:
//     the mutex classes it acquires (RLock distinguished, deferred
//     unlocks honored), the locks still held or released on exit, the
//     struct fields it touches under each lock, and the operations
//     that can block;
//   - a fixed point of those summaries across the whole module, so a
//     write, an unordered value, or a WaitGroup.Done three calls and
//     two packages away is attributed to the function the analyzer
//     actually looks at.
//
// Precision model (every deliberate approximation, so analyzer docs
// can point here):
//
//   - Aliasing is object-level and field-insensitive: writing through
//     any pointer/slice/map path rooted at a tracked object counts as
//     writing that object. Values stored into struct composite
//     literals or laundered through context.WithValue/Value are not
//     tracked (a *netsim.State holding an Instance field is not the
//     Instance).
//   - Function literals are nodes of their own. A literal that is only
//     referenced (stored in a variable, passed as a callback) has its
//     free-variable effects folded into the enclosing function; a
//     literal passed to (*sync.Once).Do is exempt — the lazy,
//     synchronized, idempotent initialization pattern (for example
//     netsim's lazily materialized flow view) is the one sanctioned
//     mutation of otherwise read-only shared state.
//   - Calls through interface methods and function values are assumed
//     effect-free; stdlib calls follow the model in external.go
//     (sort.* writes and orders its slice, sync primitives are
//     effect-free synchronization, everything else neither writes
//     module memory nor launders aliases). The module has no
//     dependencies outside the standard library, so that table is the
//     entire external world.
//   - Map-range order taint propagates through arithmetic, composite
//     literals and call results; inserting into a map or a
//     commutative integer accumulation (+=, |=, &=, ^=, *=) drops it,
//     and any object ever passed to a sort function counts as ordered.
//   - Lock classes are type-keyed, not instance-keyed: every value of
//     a type shares one class per mutex field (the module never locks
//     two instances of one type against each other), package-level
//     mutexes are keyed by variable, and function-local mutexes by
//     declaration line so capturing closures agree. The held set is
//     tracked in syntactic statement order — branch-insensitive, like
//     every other fact here — TryLock is ignored, and a mutex behind
//     an interface or an unnamed struct type is unclassifiable and
//     dropped. Blocking facts treat a send on a channel whose every
//     source is a recorded make(chan T, n) as non-blocking, a select
//     as blocking only without a default clause, and goroutine bodies
//     as inheriting none of the spawner's locks.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// Unit is one parsed, type-checked package handed to the engine. It
// mirrors the lint loader's package shape without importing it.
type Unit struct {
	// Path is the package's import path.
	Path string
	// Fset positions all files and objects.
	Fset *token.FileSet
	// Files are the parsed non-test compilation units.
	Files []*ast.File
	// Info is the type-checker's fact tables.
	Info *types.Info
	// Pkg is the checked package.
	Pkg *types.Package
}

// SourceKind classifies where a tracked value comes from, relative to
// the function being summarized.
type SourceKind int

// The source kinds.
const (
	// SrcParam is one of the function's own parameters (receiver
	// first).
	SrcParam SourceKind = iota
	// SrcGlobal is a package-level variable, identified by "pkg.Name".
	SrcGlobal
	// SrcFree is a variable captured from an enclosing function.
	SrcFree
	// SrcLocal is a variable local to the function; locals matter for
	// matching goroutine signals against joins, not for write sets.
	SrcLocal
)

// Source identifies one origin a value may alias.
type Source struct {
	Kind   SourceKind
	Param  int          // valid for SrcParam
	Obj    types.Object // valid for SrcFree and SrcLocal
	Global string       // valid for SrcGlobal: "pkgpath.VarName"
}

// SourceSet is a set of Sources.
type SourceSet map[Source]bool

func (s SourceSet) add(src Source) bool {
	if s[src] {
		return false
	}
	s[src] = true
	return true
}

func (s SourceSet) addAll(o SourceSet) bool {
	changed := false
	for src := range o {
		if s.add(src) {
			changed = true
		}
	}
	return changed
}

// Site is one concrete program point an effect was observed at, with
// a human-readable description of the offending expression.
type Site struct {
	Pos  token.Pos
	Desc string
}

// Origin records where map-iteration order first entered a value.
type Origin struct {
	// Pos is the position of the originating map range statement.
	Pos token.Pos
}

// SignalKind classifies a goroutine completion signal.
type SignalKind int

// The signal kinds. Close and Done never block the signaling
// goroutine; a Send blocks unless its channel is buffered.
const (
	SigSend SignalKind = iota
	SigClose
	SigDone
)

func (k SignalKind) String() string {
	switch k {
	case SigClose:
		return "close"
	case SigDone:
		return "WaitGroup.Done"
	default:
		return "channel send"
	}
}

// Signal is one completion-signal fact: the function performs the
// given operation on the source object.
type Signal struct {
	Src  Source
	Kind SignalKind
	Pos  token.Pos
}

// Join is one join fact: the function waits for a completion signal
// on the source object (WaitGroup.Wait, channel receive, or ranging a
// channel).
type Join struct {
	Src Source
	Pos token.Pos
	// Deferred joins run on every exit path.
	Deferred bool
	// SelectID is the position of the enclosing select statement, or
	// token.NoPos: joins inside one select clause cannot rescue a
	// cancellation return in a sibling clause.
	SelectID token.Pos
}

// CtxReturn is a return statement on a cancellation branch (under a
// <-ctx.Done() select case or a ctx.Err()/canceled(ctx) condition).
type CtxReturn struct {
	Pos token.Pos
	// SelectID is the enclosing select statement's position, or
	// token.NoPos for if-guarded returns.
	SelectID token.Pos
}

// Spawn is one `go` statement, with its goroutine body's completion
// signals resolved into the spawning function's frame.
type Spawn struct {
	Pos token.Pos
	// Callee describes the spawned body: a node key for resolved
	// bodies, an external ID, or "" when unresolvable.
	Callee string
	// Signals are the completion signals the goroutine (or anything it
	// calls) performs, expressed as spawner-frame sources.
	Signals []Signal
	// BodyJoins are the joins the goroutine itself performs, in
	// spawner-frame sources — a collector goroutine that waits for its
	// siblings extends the spawner's join closure.
	BodyJoins []Join
}

// UseKind classifies where an order-tainted value was used.
type UseKind int

// The use kinds.
const (
	// UseReturn is a tainted value returned from the function.
	UseReturn UseKind = iota
	// UseCallArg is a tainted value passed to a call.
	UseCallArg
)

// UnorderedUse records one use of a map-range-ordered value. The
// engine records mechanism only; analyzers decide which uses are
// sinks.
type UnorderedUse struct {
	Kind   UseKind
	Pos    token.Pos
	Origin Origin
	// Result is the return-value index for UseReturn.
	Result int
	// Type is the static type of the used value.
	Type types.Type
	// CalleeID identifies the call target for UseCallArg (node key,
	// external ID like "fmt.Println" or "*log/slog.Logger.Info", or
	// interface-method ID).
	CalleeID string
}

// Summary is the interprocedural abstract of one function, computed
// to a fixed point across the module.
type Summary struct {
	// ParamWrites maps a parameter index (receiver first) to the sites
	// where its pointer-reachable memory is written, transitively.
	ParamWrites map[int][]Site
	// GlobalWrites maps "pkg.Var" to the sites writing it.
	GlobalWrites map[string][]Site
	// FreeWrites maps captured variables to their write sites; the
	// enclosing function folds these into its own frame.
	FreeWrites map[types.Object][]Site
	// UnorderedResults maps a result index to the map-range origin its
	// value may carry.
	UnorderedResults map[int]Origin
	// ParamFlows maps a parameter index to the result indices that may
	// alias it (return in, return in.Field, ...).
	ParamFlows map[int]map[int]bool
	// Signals and Joins are the foldable (param/free/global) signal
	// and join facts callers inherit.
	Signals []Signal
	Joins   []Join
	// LockAcquires maps each mutex class the function (or any callee)
	// acquires to its acquisition sites, RLock mode preserved.
	LockAcquires map[LockClass][]LockSite
	// ExitHeld are locks still held when the function returns (the
	// lock-helper half of a lock()/unlock() pair); deferred unlocks
	// cancel the escape.
	ExitHeld []HeldLock
	// ExitReleased are locks released without a matching acquisition in
	// this frame (the unlock-helper half); callers fold them as
	// releases at the call site.
	ExitReleased []HeldLock
	// Blocking are the sites where the function (or any callee) can
	// block: channel operations, selects without default, WaitGroup
	// waits, solver entries, and blocking externals.
	Blocking []Site
}

// Node is one function-shaped unit in the graph: a declaration or a
// function literal.
type Node struct {
	// Key canonically names the node ("pkg.Name", "pkg.Recv.Name", or
	// "parentKey$litN" for literals).
	Key  string
	Unit *Unit
	// Decl is set for declared functions, Lit for literals.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Encloser is the node a literal appears in.
	Encloser *Node
	// Sig is the node's signature.
	Sig *types.Signature
	// Sum is the node's fixed-point summary.
	Sum Summary

	// Facts collected after the fixed point:

	// Spawns are the node's `go` statements with resolved signals.
	Spawns []Spawn
	// Joins are all joins performed in this frame (own statements plus
	// callee joins mapped through arguments), local sources included.
	Joins []Join
	// CtxReturns are the node's returns on cancellation branches.
	CtxReturns []CtxReturn
	// UnorderedUses are the node's uses of map-range-ordered values.
	UnorderedUses []UnorderedUse
	// Buffered records channel objects created in this frame with
	// make(chan T, n): sends on them do not block the sender (the
	// engine treats any two-argument make as buffered).
	Buffered map[types.Object]bool
	// LockEdges are this frame's lock-order edges: To acquired while
	// From held, including acquisitions folded in from callees.
	LockEdges []LockEdge
	// FieldAccesses are the frame's reads/writes of internal struct
	// fields, each with the held-lock set at the access.
	FieldAccesses []FieldAccess
	// HeldBlocks are potentially blocking operations executed while a
	// lock was held.
	HeldBlocks []HeldBlock
	// LockedCalls are the frame's static internal call sites with the
	// held set at each (go-spawned bodies recorded with an empty set).
	LockedCalls []LockedCall

	params    []types.Object // receiver-first parameter objects
	body      *ast.BlockStmt
	children  []*Node               // directly nested literal nodes
	goLits    map[*ast.FuncLit]bool // literals consumed by go/defer/call/once.Do
	spawnsRaw []rawSpawn
}

// Graph is the analyzed module.
type Graph struct {
	fset     *token.FileSet
	units    []*Unit
	nodes    map[string]*Node
	ordered  []*Node // stable evaluation and reporting order
	byLit    map[*ast.FuncLit]*Node
	internal map[string]bool // package paths with source in the unit set
}

// Fset returns the file set positioning every fact.
func (g *Graph) Fset() *token.FileSet { return g.fset }

// Nodes returns every node sorted by key.
func (g *Graph) Nodes() []*Node { return g.ordered }

// Node returns the node with the given key, or nil.
func (g *Graph) Node(key string) *Node { return g.nodes[key] }

// LitNode returns the node for a function literal, or nil.
func (g *Graph) LitNode(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// FuncNode resolves a function object (from any type-checking
// universe) to its node, or nil for externals.
func (g *Graph) FuncNode(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.nodes[FuncKey(fn)]
}

// FuncKey canonically names a function object: "pkg.Name" for
// package-level functions, "pkg.Recv.Name" for methods (pointer
// receivers stripped). The key is stable across type-checking
// universes, which is what lets summaries cross package boundaries.
func FuncKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, name, ok := namedTypeOf(sig.Recv().Type()); ok {
			return pkg + "." + name + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}

// namedTypeOf strips pointers and reports the named type's package
// path and name.
func namedTypeOf(t types.Type) (pkgPath, name string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() != nil {
		pkgPath = obj.Pkg().Path()
	}
	return pkgPath, obj.Name(), true
}

// maxRounds bounds the global fixed-point iteration; summaries grow
// monotonically, so this is a safety net, not a tuning knob.
const maxRounds = 32

// Analyze builds the module graph and runs summaries to a fixed
// point.
func Analyze(units []*Unit) *Graph {
	g := &Graph{
		nodes:    make(map[string]*Node),
		byLit:    make(map[*ast.FuncLit]*Node),
		internal: make(map[string]bool),
		units:    units,
	}
	for _, u := range units {
		if g.fset == nil {
			g.fset = u.Fset
		}
		g.internal[u.Path] = true
	}
	for _, u := range units {
		g.collectNodes(u)
	}
	sort.Slice(g.ordered, func(i, j int) bool { return g.ordered[i].Key < g.ordered[j].Key })

	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, n := range g.ordered {
			sum := g.evalNode(n, false)
			if !summaryEqual(&sum, &n.Sum) {
				n.Sum = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Fact-collection pass against the converged summaries.
	for _, n := range g.ordered {
		g.evalNode(n, true)
	}
	for _, n := range g.ordered {
		g.resolveSpawns(n)
	}
	return g
}

// collectNodes indexes every function declaration and nested literal
// in one unit, plus function literals bound in package-level var
// initializers (var solve = func(...) {...} — the registered-solver
// idiom), which sit under a GenDecl rather than a FuncDecl.
func (g *Graph) collectNodes(u *Unit) {
	anon := 0
	for _, file := range u.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				obj, _ := u.Info.Defs[d.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &Node{
					Key:  FuncKey(obj),
					Unit: u,
					Decl: d,
					Sig:  obj.Type().(*types.Signature),
					body: d.Body,
				}
				n.params = paramObjects(n.Sig)
				g.addNode(n)
				g.collectLits(u, n, d.Body)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					g.collectVarLits(u, vs, &anon)
				}
			}
		}
	}
}

// collectVarLits indexes literals in one package-level var spec. A
// literal that directly initializes a named var is keyed like a
// function declaration of that name (var and func names share the
// package scope, so the keys cannot collide); literals buried deeper
// in an initializer expression get synthetic per-unit keys.
func (g *Graph) collectVarLits(u *Unit, vs *ast.ValueSpec, anon *int) {
	for i, val := range vs.Values {
		if lit, ok := unparen(val).(*ast.FuncLit); ok && i < len(vs.Names) && vs.Names[i].Name != "_" {
			g.addVarLitNode(u, lit, u.Path+"."+vs.Names[i].Name)
			continue
		}
		ast.Inspect(val, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			*anon++
			g.addVarLitNode(u, lit, u.Path+".$pkgvar$"+strconv.Itoa(*anon))
			return false // nested literals belong to this one
		})
	}
}

// addVarLitNode registers one package-level literal as a root node
// (no encloser: at package level every outer reference is a global,
// never a captured local).
func (g *Graph) addVarLitNode(u *Unit, lit *ast.FuncLit, key string) {
	sig, _ := u.Info.TypeOf(lit).(*types.Signature)
	if sig == nil {
		return
	}
	n := &Node{
		Key:  key,
		Unit: u,
		Lit:  lit,
		Sig:  sig,
		body: lit.Body,
	}
	n.params = paramObjects(sig)
	g.addNode(n)
	g.byLit[lit] = n
	g.collectLits(u, n, lit.Body)
}

// collectLits creates child nodes for the literals directly nested in
// body (literals inside those literals are collected recursively by
// their own parent).
func (g *Graph) collectLits(u *Unit, parent *Node, body ast.Node) {
	idx := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		sig, _ := u.Info.TypeOf(lit).(*types.Signature)
		if sig == nil {
			return false
		}
		idx++
		child := &Node{
			Key:      parent.Key + "$" + strconv.Itoa(idx),
			Unit:     u,
			Lit:      lit,
			Encloser: parent,
			Sig:      sig,
			body:     lit.Body,
		}
		child.params = paramObjects(sig)
		g.addNode(child)
		g.byLit[lit] = child
		parent.children = append(parent.children, child)
		g.collectLits(u, child, lit.Body)
		return false // children of this literal belong to it
	}
	ast.Inspect(body, walk)
}

func (g *Graph) addNode(n *Node) {
	n.goLits = make(map[*ast.FuncLit]bool)
	n.Buffered = make(map[types.Object]bool)
	g.nodes[n.Key] = n
	g.ordered = append(g.ordered, n)
}

// paramObjects lists a signature's parameter objects, receiver first.
func paramObjects(sig *types.Signature) []types.Object {
	var out []types.Object
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// summaryEqual compares the caller-visible parts of two summaries.
func summaryEqual(a, b *Summary) bool {
	if len(a.ParamWrites) != len(b.ParamWrites) ||
		len(a.GlobalWrites) != len(b.GlobalWrites) ||
		len(a.FreeWrites) != len(b.FreeWrites) ||
		len(a.UnorderedResults) != len(b.UnorderedResults) ||
		len(a.ParamFlows) != len(b.ParamFlows) ||
		len(a.Signals) != len(b.Signals) ||
		len(a.Joins) != len(b.Joins) ||
		len(a.LockAcquires) != len(b.LockAcquires) ||
		len(a.ExitHeld) != len(b.ExitHeld) ||
		len(a.ExitReleased) != len(b.ExitReleased) ||
		len(a.Blocking) != len(b.Blocking) {
		return false
	}
	for k, v := range a.ParamWrites {
		if len(b.ParamWrites[k]) != len(v) {
			return false
		}
	}
	for k, v := range a.GlobalWrites {
		if len(b.GlobalWrites[k]) != len(v) {
			return false
		}
	}
	for k, v := range a.FreeWrites {
		if len(b.FreeWrites[k]) != len(v) {
			return false
		}
	}
	for k := range a.UnorderedResults {
		if _, ok := b.UnorderedResults[k]; !ok {
			return false
		}
	}
	for k, v := range a.ParamFlows {
		if len(b.ParamFlows[k]) != len(v) {
			return false
		}
	}
	for k, v := range a.LockAcquires {
		if len(b.LockAcquires[k]) != len(v) {
			return false
		}
	}
	return true
}
