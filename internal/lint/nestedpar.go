package lint

import (
	"go/ast"
	"go/token"
)

// nestedPar flags parallel.For / ForGrain calls that sit
// syntactically inside the body literal of another parallel loop. The
// worker pool degrades nested loops to inline execution at runtime, so
// such code is not incorrect — but the inner loop silently buys zero
// parallelism while looking parallel, and restructuring (hoisting the
// inner loop, or fusing the two) is always available. Cross-function
// nesting (a kernel that parallelizes internally, called from a parallel
// body) is the runtime guard's job, not this analyzer's.
var nestedPar = &Analyzer{
	Name: "nestedpar",
	Doc:  "parallel.For* inside another parallel body literal oversubscribes by construction",
	Run:  runNestedPar,
}

var parallelLoopFuncs = []string{"For", "ForGrain"}

func runNestedPar(p *Pass) {
	info := p.Pkg.Info
	reported := map[token.Pos]bool{}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgFunc(info, call, "parallel", parallelLoopFuncs...) {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := ast.Unparen(arg).(*ast.FuncLit)
				if !ok {
					continue
				}
				ast.Inspect(lit.Body, func(inner ast.Node) bool {
					ic, ok := inner.(*ast.CallExpr)
					if ok && isPkgFunc(info, ic, "parallel", parallelLoopFuncs...) && !reported[ic.Pos()] {
						reported[ic.Pos()] = true
						p.Reportf(ic.Pos(),
							"parallel loop nested syntactically inside another parallel body: the pool runs it inline (no parallelism) — hoist or fuse the loops")
					}
					return true
				})
			}
			return true
		})
	}
}
