package analysis

import (
	"go/ast"
	"slices"
	"strings"
)

// CtxPoll keeps RunContext cancellation prompt: inside the engine
// (internal/core), the shard pool (internal/shard) and the daemon
// (cmd/whirlpoold), an unbounded loop — `for { ... }` with no condition,
// the shape of every match-processing and queue-pop loop, Whirlpool-M's
// router and servers among them — must poll cancellation on each
// iteration, either r.cancelled() or a receive from ctx.Done(). Without
// the poll, a cancelled query keeps burning CPU until its queues drain
// naturally, and no test notices.
//
// Busy-wait loops with an empty body are reported unconditionally:
// they cannot poll anything. The one sanctioned busy-wait, spin() in
// internal/core/engine.go (it exists to simulate per-operation cost,
// Figure 8), carries the exemption annotation on the enclosing
// function:
//
//	// +whirllint:busywait
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "report unbounded engine loops that never poll cancellation (r.cancelled() / ctx.Done())",
	Run:  runCtxPoll,
}

// ctxPollScope limits the analyzer to the packages whose unbounded
// loops process matches and queue pops. A package is in scope when its
// import path contains one of these substrings. internal/shard is in
// scope for the worker pool: a worker loop written without a condition
// that stopped polling would keep driving shards after the query died.
var ctxPollScope = []string{"internal/core", "internal/shard", "cmd/whirlpoold", "testdata/src/ctxpoll"}

func runCtxPoll(pass *Pass) {
	if !slices.ContainsFunc(ctxPollScope, func(s string) bool { return strings.Contains(pass.Pkg.Path(), s) }) {
		return
	}
	for _, fn := range funcDecls(pass) {
		if fn.Body == nil || hasAnnotation(fn, "busywait") {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			if len(loop.Body.List) == 0 {
				pass.Reportf(loop.Pos(),
					"empty-body busy-wait loop; poll cancellation or annotate the enclosing function %sbusywait",
					annotationPrefix)
				return true
			}
			if loop.Cond == nil && !pollsCancellation(pass, loop.Body) {
				pass.Reportf(loop.Pos(),
					"unbounded loop never polls cancellation; check r.cancelled() or ctx.Done() each iteration so RunContext cancellation stays prompt, or annotate the enclosing function %sbusywait",
					annotationPrefix)
			}
			return true
		})
	}
}

// pollsCancellation reports whether the loop body contains a call to a
// method named cancelled, or Done() on a context.Context (the receive
// in a select case is a CallExpr too, so `case <-ctx.Done():` counts).
func pollsCancellation(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "cancelled":
			found = true
			return false
		case "Done":
			if t := pass.TypesInfo.TypeOf(sel.X); t != nil && isNamedType(t, "context", "Context") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
