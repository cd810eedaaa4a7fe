package analysis

import (
	"go/ast"
	"go/types"
)

// LockGuard enforces the repo's mutex convention: in a struct literal
// like
//
//	type topkSet struct {
//		mu sync.Mutex
//		k  int          // guarded
//		...
//	}
//
// every field declared after a mutex field named "mu" (sync.Mutex or
// sync.RWMutex) is guarded by it, and a method of that struct may only
// touch a guarded field through the receiver if the method body also
// acquires the mutex (mu.Lock or mu.RLock). Methods that deliberately
// run with the lock already held by their caller are annotated
//
//	// +whirllint:locked
//
// in their doc comment and are skipped.
//
// The check is an intra-method approximation: acquiring the lock
// anywhere in the method satisfies it, and accesses that escape through
// non-receiver aliases are not tracked. It exists to catch the common
// regression — a new method reading topkSet.top or an lru.Cache's
// entries without locking — which `go test -race` catches
// only where its matrix runs the method concurrently. Copied locks are
// go vet's copylocks check.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "report struct fields guarded by a mu sync.Mutex accessed in methods that never lock mu",
	Run:  runLockGuard,
}

// guardedStruct records which fields of a struct follow its mu field.
type guardedStruct struct {
	muName string
	fields map[string]bool
}

func runLockGuard(pass *Pass) {
	guarded := make(map[*types.TypeName]*guardedStruct)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			gs := collectGuarded(pass, st)
			if gs != nil {
				guarded[obj] = gs
			}
			return true
		})
	}
	if len(guarded) == 0 {
		return
	}

	for _, fn := range funcDecls(pass) {
		if fn.Recv == nil || fn.Body == nil || hasAnnotation(fn, "locked") {
			continue
		}
		recvObj, typeName := receiver(pass, fn)
		if recvObj == nil {
			continue
		}
		gs := guarded[typeName]
		if gs == nil {
			continue
		}
		locked := false
		var accesses []*ast.SelectorExpr
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// recv.mu.Lock() / recv.mu.RLock(): the inner selector is
			// recv.mu; the outer one carries the method name.
			if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
				if inner, ok := sel.X.(*ast.SelectorExpr); ok &&
					inner.Sel.Name == gs.muName && isReceiver(pass, inner.X, recvObj) {
					locked = true
				}
			}
			if gs.fields[sel.Sel.Name] && isReceiver(pass, sel.X, recvObj) {
				accesses = append(accesses, sel)
			}
			return true
		})
		if locked {
			continue
		}
		for _, sel := range accesses {
			pass.Reportf(sel.Sel.Pos(),
				"%s.%s is guarded by %s.%s, but method %s never locks it (lock %s, or annotate the method %s%s if every caller holds the lock)",
				typeName.Name(), sel.Sel.Name, typeName.Name(), gs.muName,
				fn.Name.Name, gs.muName, annotationPrefix, "locked")
		}
	}
}

// collectGuarded returns the fields declared after a "mu" mutex field,
// or nil if the struct has none.
func collectGuarded(pass *Pass, st *ast.StructType) *guardedStruct {
	var gs *guardedStruct
	for _, field := range st.Fields.List {
		if gs != nil {
			for _, name := range field.Names {
				gs.fields[name.Name] = true
			}
			continue
		}
		for _, name := range field.Names {
			if name.Name != "mu" {
				continue
			}
			t := pass.TypesInfo.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex") {
				gs = &guardedStruct{muName: name.Name, fields: make(map[string]bool)}
			}
		}
	}
	if gs == nil || len(gs.fields) == 0 {
		return nil
	}
	return gs
}

// receiver resolves a method's receiver variable and its struct's type
// name; nil when the receiver is anonymous or not a defined type.
func receiver(pass *Pass, fn *ast.FuncDecl) (*types.Var, *types.TypeName) {
	if len(fn.Recv.List) != 1 || len(fn.Recv.List[0].Names) != 1 {
		return nil, nil
	}
	ident := fn.Recv.List[0].Names[0]
	if ident.Name == "_" {
		return nil, nil
	}
	obj, ok := pass.TypesInfo.Defs[ident].(*types.Var)
	if !ok {
		return nil, nil
	}
	t := obj.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	return obj, named.Obj()
}

// isReceiver reports whether expr is an identifier bound to recv.
func isReceiver(pass *Pass, expr ast.Expr, recv *types.Var) bool {
	ident, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	return pass.TypesInfo.Uses[ident] == recv
}
