package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// HotAlloc proves the zero-allocation property of the serving loop
// statically: a function annotated
//
//	// +whirllint:hotpath
//
// is a hot-path root (run.process, the heap ops, topkSet.offer, the
// arena's get/release, Probe.Append, the shard pool's steal loop), and
// no allocating construct may be reachable from a root through the
// package's call graph. The AllocsPerRun tests
// (TestProcessAllocs, TestRunReuseAllocs, the index and store probe
// tests) catch a regression only on the paths their inputs exercise;
// this analyzer fails the build on every path.
//
// The call graph walk covers direct calls, method calls on concrete
// receivers, interface method calls (conservatively: every method of an
// in-package type that implements the interface), and calls through
// function-valued fields (conservatively: every function or closure the
// package ever stores in a field of that name and type). Calls that
// leave the package consult the AllocFact go vet hands over from the
// callee's package — the standard library's included, so time.After or
// strconv.ParseFloat on a hot path is caught through their bodies;
// callees with no fact are assumed clean except for the known
// allocators (fmt, errors).
//
// Flagged constructs: make and new, escaping composite literals (&T{},
// slice and map literals), append into a slice that is not caller-owned
// scratch (a parameter, receiver field, or local derived from one),
// interface boxing of a non-pointer argument at a call site (the
// container/heap bug class PR 5 de-boxed), closures capturing outer
// variables, and calls into fmt/errors.
//
// The escape hatch for deliberate amortized allocation — slab refills,
// first-seen-root entries — is a function annotation with a mandatory
// justification:
//
//	// +whirllint:allocok amortized: one slab per 256 matches
//
// An allocok function is trusted clean (its own body is skipped and it
// exports a non-allocating fact); a bare allocok with no justification
// is itself reported.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "report allocating constructs reachable from +whirllint:hotpath roots",
	Run:  runHotAlloc,
}

// AllocFact is the per-function summary hotalloc exports: whether the
// function (transitively) allocates, and the first reason found.
type AllocFact struct {
	Allocates bool   `json:"allocates"`
	Reason    string `json:"reason,omitempty"`
}

// allocSite is one allocating construct found in a function body.
type allocSite struct {
	pos  token.Pos
	desc string
}

// hotNode is one call-graph node: a declared function or a function
// literal.
type hotNode struct {
	name    string // for diagnostics
	fn      *types.Func
	body    *ast.BlockStmt
	sig     *types.Signature
	hotpath bool
	allocok bool
	justif  string
	decl    *ast.FuncDecl // nil for literals

	allocs []allocSite
	// extAllocs are call sites whose out-of-package callee is known to
	// allocate (fact or known-allocator list).
	extAllocs []allocSite
	edges     []*hotNode

	allocates bool   // fixed-point summary
	reason    string // first reason, for the exported fact
}

func runHotAlloc(pass *Pass) {
	g := newHotGraph(pass)
	if g == nil {
		return
	}
	g.solve()
	g.exportFacts()

	// Bare allocok is reported wherever it appears; the annotation
	// waives a correctness gate, so the why is mandatory.
	for _, n := range g.nodes {
		if n.allocok && n.justif == "" && n.decl != nil {
			pass.Reportf(n.decl.Name.Pos(),
				"%sallocok on %s needs a justification on the same line (why is allocating here acceptable?)",
				annotationPrefix, n.name)
		}
	}

	// Walk from the hotpath roots and report every allocating construct
	// in reach. A site is reported once, with the first root that
	// reaches it.
	reported := make(map[*hotNode]bool)
	for _, root := range g.ordered {
		if !root.hotpath {
			continue
		}
		g.reportReachable(pass, root, root.name, reported)
	}
}

func (g *hotGraph) reportReachable(pass *Pass, n *hotNode, root string, reported map[*hotNode]bool) {
	if reported[n] || n.allocok {
		return
	}
	reported[n] = true
	for _, site := range n.allocs {
		pass.Reportf(site.pos,
			"hot path (%shotpath root %s): %s; keep the serving loop allocation-free, or annotate the enclosing function %sallocok with a justification",
			annotationPrefix, root, site.desc, annotationPrefix)
	}
	for _, site := range n.extAllocs {
		pass.Reportf(site.pos,
			"hot path (%shotpath root %s): %s; keep the serving loop allocation-free, or annotate the enclosing function %sallocok with a justification",
			annotationPrefix, root, site.desc, annotationPrefix)
	}
	for _, e := range n.edges {
		g.reportReachable(pass, e, root, reported)
	}
}

// hotGraph is the per-package call graph with allocation summaries.
type hotGraph struct {
	pass    *Pass
	nodes   map[ast.Node]*hotNode // FuncDecl or FuncLit -> node
	byFunc  map[*types.Func]*hotNode
	ordered []*hotNode
	// fieldFuncs maps a struct field (of function type) to every
	// function or literal the package stores in it, for conservative
	// dispatch through function-valued fields.
	fieldFuncs map[*types.Var][]*hotNode
	// namedTypes are the package's named types, for conservative
	// interface dispatch.
	namedTypes []*types.Named
}

// newHotGraph builds nodes, local allocation lists and call edges; nil
// when the package declares no functions.
func newHotGraph(pass *Pass) *hotGraph {
	g := &hotGraph{
		pass:       pass,
		nodes:      make(map[ast.Node]*hotNode),
		byFunc:     make(map[*types.Func]*hotNode),
		fieldFuncs: make(map[*types.Var][]*hotNode),
	}

	// Named types of the package, for interface dispatch.
	if scope := pass.Pkg.Scope(); scope != nil {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					g.namedTypes = append(g.namedTypes, named)
				}
			}
		}
	}

	// Declared functions.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			hot, _ := funcAnnotation(fd, "hotpath")
			okAlloc, justif := funcAnnotation(fd, "allocok")
			n := &hotNode{
				name:    funcDisplayName(obj),
				fn:      obj,
				body:    fd.Body,
				sig:     obj.Type().(*types.Signature),
				hotpath: hot,
				allocok: okAlloc,
				justif:  justif,
				decl:    fd,
			}
			g.nodes[fd] = n
			g.byFunc[obj] = n
			g.ordered = append(g.ordered, n)
		}
	}
	if len(g.ordered) == 0 {
		return nil
	}

	// Function literals: each is its own node, linked by an edge from
	// its enclosing function (a hot function that builds a closure is
	// assumed to run it).
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			parent := g.nodes[fd]
			g.addLiteralNodes(fd.Body, parent)
		}
	}

	// Field-stored functions, for x.f() dispatch: every assignment or
	// composite-literal entry whose target is a function-typed field
	// registers the stored function.
	for _, f := range pass.Files {
		g.collectFieldFuncs(f)
	}

	// Local allocation sites and call edges.
	for _, n := range g.ordered {
		g.analyzeBody(n)
	}
	return g
}

// addLiteralNodes creates a node for each function literal lexically
// inside body (but not inside a nested literal) and links parent to it.
func (g *hotGraph) addLiteralNodes(body ast.Node, parent *hotNode) {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if n == body {
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
			return false // nested literals handled recursively
		}
		return true
	})
	for _, lit := range lits {
		sig, _ := g.pass.TypesInfo.TypeOf(lit).(*types.Signature)
		n := &hotNode{
			name: parent.name + " literal",
			body: lit.Body,
			sig:  sig,
			// A literal inside an allocok function inherits the waiver:
			// the annotation covers the function's whole body.
			allocok: parent.allocok,
			justif:  parent.justif,
		}
		g.nodes[lit] = n
		g.ordered = append(g.ordered, n)
		parent.edges = append(parent.edges, n)
		g.addLiteralNodes(lit.Body, n)
	}
}

// collectFieldFuncs records which functions the package stores into
// function-typed struct fields.
func (g *hotGraph) collectFieldFuncs(f *ast.File) {
	record := func(lhs ast.Expr, rhs ast.Expr) {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			return
		}
		fieldObj, ok := g.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
		if !ok || !fieldObj.IsField() {
			return
		}
		if n := g.nodeForFuncExpr(rhs); n != nil {
			g.fieldFuncs[fieldObj] = append(g.fieldFuncs[fieldObj], n)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i < len(n.Rhs) {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				fieldObj, ok := g.pass.TypesInfo.Uses[key].(*types.Var)
				if !ok || !fieldObj.IsField() {
					continue
				}
				if fn := g.nodeForFuncExpr(kv.Value); fn != nil {
					g.fieldFuncs[fieldObj] = append(g.fieldFuncs[fieldObj], fn)
				}
			}
		}
		return true
	})
}

// nodeForFuncExpr resolves an expression that stores a function value:
// a reference to a declared function, or a literal.
func (g *hotGraph) nodeForFuncExpr(e ast.Expr) *hotNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return g.nodes[e]
	case *ast.Ident:
		if fn, ok := g.pass.TypesInfo.Uses[e].(*types.Func); ok {
			return g.byFunc[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := g.pass.TypesInfo.Uses[e.Sel].(*types.Func); ok {
			return g.byFunc[fn]
		}
	}
	return nil
}

// analyzeBody fills one node's local allocation sites and call edges.
func (g *hotGraph) analyzeBody(n *hotNode) {
	pass := g.pass
	scratch := scratchBases(pass, n)

	// Closure literals handed straight to a non-escaping callee (the
	// sort package's comparator params) never outlive the call, so the
	// compiler keeps them on the stack — pre-order walk marks them
	// before the FuncLit case sees them.
	stackLits := make(map[*ast.FuncLit]bool)

	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		if node == nil {
			return false
		}
		switch node := node.(type) {
		case *ast.FuncLit:
			// Closure creation: capturing literals allocate the closure
			// object; the body is analyzed as its own node.
			if caps := captures(pass, node); len(caps) > 0 && !stackLits[node] {
				n.allocs = append(n.allocs, allocSite{node.Pos(),
					fmt.Sprintf("closure captures %s, allocating a closure object", strings.Join(caps, ", "))})
			}
			return false
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(node)
			switch t.Underlying().(type) {
			case *types.Slice:
				n.allocs = append(n.allocs, allocSite{node.Pos(), "slice literal allocates"})
			case *types.Map:
				n.allocs = append(n.allocs, allocSite{node.Pos(), "map literal allocates"})
			}
			// Struct value literals are stack values unless address-
			// taken, which the UnaryExpr case below catches.
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if cl, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					n.allocs = append(n.allocs, allocSite{node.Pos(), "&composite literal escapes to the heap"})
					// Avoid double-reporting an inner slice/map literal.
					for _, el := range cl.Elts {
						ast.Inspect(el, walkWrap(walk))
					}
					return false
				}
			}
		case *ast.CallExpr:
			if nonEscapingCallee(pass, node) {
				for _, arg := range node.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						stackLits[lit] = true
					}
				}
			}
			g.analyzeCall(n, node, scratch)
		}
		return true
	}
	ast.Inspect(n.body, walkWrap(walk))
}

// nonEscapingCallee recognizes stdlib callees whose parameters provably
// do not escape, so closure and interface arguments stay on the stack.
// Kept deliberately narrow: the sort package, whose Search/Slice
// comparators are the hot loops' one legitimate closure idiom.
func nonEscapingCallee(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sort"
}

// walkWrap adapts walk for a nested ast.Inspect.
func walkWrap(walk func(ast.Node) bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		if n == nil {
			return false
		}
		return walk(n)
	}
}

// analyzeCall classifies one call expression: builtin allocators, append
// discipline, boxing, and call-graph edges.
func (g *hotGraph) analyzeCall(n *hotNode, call *ast.CallExpr, scratch map[types.Object]bool) {
	pass := g.pass
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch obj.Name() {
			case "make":
				n.allocs = append(n.allocs, allocSite{call.Pos(), "make allocates"})
			case "new":
				n.allocs = append(n.allocs, allocSite{call.Pos(), "new allocates"})
			case "append":
				if len(call.Args) > 0 && !isScratchExpr(pass, call.Args[0], scratch) {
					n.allocs = append(n.allocs, allocSite{call.Pos(),
						"append grows a slice that is not caller-owned scratch"})
				}
			}
			return
		}
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			g.addCallEdge(n, call, fn)
		} else if v, ok := pass.TypesInfo.Uses[fun].(*types.Var); ok && v.IsField() {
			g.addFieldEdges(n, v)
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			g.addCallEdge(n, call, fn)
		} else if v, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Var); ok && v.IsField() {
			// Call through a function-valued field: conservatively every
			// function the package ever stores there.
			g.addFieldEdges(n, v)
		}
	case *ast.FuncLit:
		if lit := g.nodes[fun]; lit != nil {
			n.edges = append(n.edges, lit)
		}
	}
	g.checkBoxing(n, call)
}

func (g *hotGraph) addFieldEdges(n *hotNode, field *types.Var) {
	n.edges = append(n.edges, g.fieldFuncs[field]...)
}

// addCallEdge links a call to a resolved callee: an in-package node, an
// imported fact, the known-allocator list, or (for interface methods)
// every in-package implementation.
func (g *hotGraph) addCallEdge(n *hotNode, call *ast.CallExpr, fn *types.Func) {
	pass := g.pass
	if local := g.byFunc[fn]; local != nil {
		n.edges = append(n.edges, local)
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
			g.addInterfaceEdges(n, fn.Name(), iface)
			return
		}
	}
	// Out-of-package static call: facts first, then the known list.
	var fact AllocFact
	if pass.ImportObjectFact(fn, &fact) {
		if fact.Allocates {
			reason := fact.Reason
			if reason == "" {
				reason = "it allocates"
			}
			n.extAllocs = append(n.extAllocs, allocSite{call.Pos(),
				fmt.Sprintf("call to %s allocates (%s)", funcDisplayName(fn), reason)})
		}
		return
	}
	if pkg := fn.Pkg(); pkg != nil && knownAllocator(pkg.Path(), fn.Name()) {
		n.extAllocs = append(n.extAllocs, allocSite{call.Pos(),
			fmt.Sprintf("call to %s.%s allocates", pkg.Path(), fn.Name())})
	}
}

// addInterfaceEdges conservatively resolves an interface method call to
// every in-package implementation.
func (g *hotGraph) addInterfaceEdges(n *hotNode, method string, iface *types.Interface) {
	for _, named := range g.namedTypes {
		var impl types.Type = named
		if !types.Implements(impl, iface) {
			impl = types.NewPointer(named)
			if !types.Implements(impl, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, g.pass.Pkg, method)
		if fn, ok := obj.(*types.Func); ok {
			if local := g.byFunc[fn]; local != nil {
				n.edges = append(n.edges, local)
			}
		}
	}
}

// checkBoxing flags non-pointer concrete arguments passed to interface
// parameters: the conversion boxes the value on the heap (pointers are
// stored directly and do not allocate).
func (g *hotGraph) checkBoxing(n *hotNode, call *ast.CallExpr) {
	pass := g.pass
	sigT := pass.TypesInfo.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return // builtin or conversion
	}
	// Calls already flagged whole (fmt, errors) don't need per-argument
	// boxing reports on top, and non-escaping callees (sort) let the
	// compiler stack-allocate the boxed header.
	if nonEscapingCallee(pass, call) {
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
			knownAllocator(fn.Pkg().Path(), fn.Name()) {
			return
		}
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.IsNil() {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Chan, *types.Map:
			continue // interface-shaped: stored without boxing
		}
		n.allocs = append(n.allocs, allocSite{arg.Pos(),
			fmt.Sprintf("interface boxing of %s argument allocates", at.String())})
	}
}

// knownAllocator lists out-of-module callees treated as allocating even
// without facts: the formatting and error-construction APIs whose whole
// job is building heap values.
func knownAllocator(pkgPath, name string) bool {
	switch pkgPath {
	case "fmt":
		return true
	case "errors":
		return name == "New" || name == "Errorf" || name == "Join"
	}
	return false
}

// scratchBases computes the objects that root caller-owned scratch in a
// function: parameters, the receiver, and locals initialized (or
// assigned) from an expression rooted at one of those. append into such
// a base is amortized reuse, not steady-state allocation.
func scratchBases(pass *Pass, n *hotNode) map[types.Object]bool {
	scratch := make(map[types.Object]bool)
	if n.sig != nil {
		if r := n.sig.Recv(); r != nil {
			scratch[r] = true
		}
		for i := 0; i < n.sig.Params().Len(); i++ {
			scratch[n.sig.Params().At(i)] = true
		}
	}
	// Propagate through local assignments until stable: the common
	// pattern is one hop (exts := sc.exts[:0]).
	for changed := true; changed; {
		changed = false
		ast.Inspect(n.body, func(node ast.Node) bool {
			if _, ok := node.(*ast.FuncLit); ok && node != n.body {
				return false
			}
			as, ok := node.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				ident, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[ident]
				if obj == nil {
					obj = pass.TypesInfo.Uses[ident]
				}
				if obj == nil || scratch[obj] {
					continue
				}
				if isScratchExpr(pass, as.Rhs[i], scratch) {
					scratch[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return scratch
}

// isScratchExpr reports whether the expression is rooted at a scratch
// base: a parameter or receiver, possibly through selectors, slicing,
// indexing, dereference, or an append of another scratch expression.
func isScratchExpr(pass *Pass, e ast.Expr, scratch map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		return obj != nil && scratch[obj]
	case *ast.SelectorExpr:
		// A field of a scratch base (sc.exts) is scratch; so is a
		// package-level variable's field only if the base is scratch.
		return isScratchExpr(pass, e.X, scratch)
	case *ast.SliceExpr:
		return isScratchExpr(pass, e.X, scratch)
	case *ast.IndexExpr:
		return isScratchExpr(pass, e.X, scratch)
	case *ast.StarExpr:
		return isScratchExpr(pass, e.X, scratch)
	case *ast.UnaryExpr:
		// &recv.shards[i] is still receiver-owned storage.
		if e.Op == token.AND {
			return isScratchExpr(pass, e.X, scratch)
		}
	case *ast.CompositeLit:
		// The literal itself is reported as an allocation; appends into
		// it are growth of an already-flagged base, not a second site.
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "append":
					// append(scratchBase, ...) yields a scratch value.
					if len(e.Args) > 0 {
						return isScratchExpr(pass, e.Args[0], scratch)
					}
				case "make":
					// The make is reported as the allocation; growing the
					// result is not a separate finding.
					return true
				}
			}
		}
	}
	return false
}

// captures lists the names of outer variables a function literal
// captures (variables declared outside the literal that are neither
// package-level nor the literal's own parameters).
func captures(pass *Pass, lit *ast.FuncLit) []string {
	inside := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			inside[obj] = true
		}
		return true
	})
	pkgScope := pass.Pkg.Scope()
	seen := make(map[types.Object]bool)
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() || inside[obj] || seen[obj] {
			return true
		}
		if obj.Pkg() != pass.Pkg {
			return true
		}
		if pkgScope != nil && pkgScope.Lookup(obj.Name()) == obj {
			return true // package-level: no capture
		}
		seen[obj] = true
		names = append(names, obj.Name())
		return true
	})
	sort.Strings(names)
	return names
}

// solve computes the transitive allocates summary by fixed point.
func (g *hotGraph) solve() {
	for _, n := range g.ordered {
		if n.allocok {
			continue
		}
		if len(n.allocs) > 0 {
			n.allocates, n.reason = true, n.allocs[0].desc
		} else if len(n.extAllocs) > 0 {
			n.allocates, n.reason = true, n.extAllocs[0].desc
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.ordered {
			if n.allocates || n.allocok {
				continue
			}
			for _, e := range n.edges {
				if e.allocates {
					n.allocates = true
					n.reason = "calls " + e.name + ", which allocates"
					changed = true
					break
				}
			}
		}
	}
}

// exportFacts publishes each declared function's summary for downstream
// packages.
func (g *hotGraph) exportFacts() {
	for _, n := range g.ordered {
		if n.fn == nil {
			continue
		}
		g.pass.ExportObjectFact(n.fn, &AllocFact{Allocates: n.allocates, Reason: n.reason})
	}
}

// funcDisplayName renders a function or method for diagnostics:
// "pkg.F" or "pkg.(T).M".
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = "(" + named.Obj().Name() + ")." + name
		}
	}
	if fn.Pkg() != nil && fn.Pkg().Name() != "" {
		return fn.Pkg().Name() + "." + name
	}
	return name
}
