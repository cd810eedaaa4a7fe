package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatScore forbids raw ==, !=, <= and >= between score-typed float64
// expressions. Whirlpool's pruning bound (Section 5.2.2) compares
// accumulated floating-point sums, so exact comparisons silently turn
// into tie-break coin flips; the sanctioned idiom absorbs the noise
// with an epsilon, as prunable does in internal/core/run.go:
//
//	m.maxFinal <= t+pruneEps
//
// An expression is score-typed when it is float64 and mentions an
// identifier matching score/contrib/threshold/maxFinal. A comparison is
// exempt when either side mentions an eps/epsilon identifier (it is the
// idiom), or when the enclosing function is annotated
//
//	// +whirllint:exactscore
//
// for the few places — deterministic sort tie-breaks — where exact
// comparison is the point.
var FloatScore = &Analyzer{
	Name: "floatscore",
	Doc:  "report raw ==/!=/<=/>= between score-typed float64 expressions (use the pruneEps idiom)",
	Run:  runFloatScore,
}

var floatScoreOps = map[token.Token]bool{
	token.EQL: true, // ==
	token.NEQ: true, // !=
	token.LEQ: true, // <=
	token.GEQ: true, // >=
}

var scoreNames = []string{"score", "contrib", "threshold", "maxfinal"}

func runFloatScore(pass *Pass) {
	for _, fn := range funcDecls(pass) {
		if fn.Body == nil || hasAnnotation(fn, "exactscore") {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			cmp, ok := n.(*ast.BinaryExpr)
			if !ok || !floatScoreOps[cmp.Op] {
				return true
			}
			if !isFloat64(pass, cmp.X) || !isFloat64(pass, cmp.Y) {
				return true
			}
			scoreish := mentionsAny(cmp.X, scoreNames) || mentionsAny(cmp.Y, scoreNames)
			epsish := mentionsAny(cmp.X, []string{"eps"}) || mentionsAny(cmp.Y, []string{"eps"})
			if scoreish && !epsish {
				pass.Reportf(cmp.OpPos,
					"raw %s between float64 scores; absorb float noise with the pruneEps idiom (internal/core/run.go) or annotate the function %sexactscore for deliberate tie-breaks",
					cmp.Op, annotationPrefix)
			}
			return true
		})
	}
}

func isFloat64(pass *Pass, expr ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(expr)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Float64
}

// mentionsAny reports whether any identifier (or field selector) inside
// expr contains one of the given lower-case substrings.
func mentionsAny(expr ast.Expr, substrings []string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		var name string
		switch n := n.(type) {
		case *ast.Ident:
			name = n.Name
		default:
			return true
		}
		lower := strings.ToLower(name)
		for _, s := range substrings {
			if strings.Contains(lower, s) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
