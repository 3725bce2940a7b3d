package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// markUpdated enforces the Param-version contract: any in-place mutation
// of an nn.Param's Data — indexed assignment, copy/clear into it, or
// passing it to a known-mutating function — must be followed, later in the
// same function, by MarkUpdated() on the same receiver expression. The conv
// layer's rotated input-gradient kernel (and anything else keyed on
// Param.Version) serves stale derived state the moment a mutation path
// forgets the call.
//
// The read side of the same contract is checked too: a function that turns
// a Param's Data into a tensor.RotatedWeights — the one derived weight copy
// that outlives a call; the forward convolution reads Data itself — must
// read Version() on that Param: a copy built without looking at the version
// is either rebuilt every call or cached with nothing to invalidate it.
//
// A parameter that is freshly constructed in the function (its base
// variable is assigned a composite literal there) is exempt: nothing can
// hold a cache derived from a value that has never escaped. Mutations
// routed through an alias of Data are beyond the analyzer; such code must
// carry a //ttalint:ok markupdated suppression with its justification.
var markUpdated = &Analyzer{
	Name: "markupdated",
	Doc:  "writes to nn.Param.Data must be followed by MarkUpdated() on the same receiver",
	Run:  runMarkUpdated,
}

// knownMutators maps function names to the argument index they mutate;
// passing a Param's Data at that position counts as a write.
var knownMutators = map[string]int{
	"kaimingConv": 1, // nn's He-normal in-place initializer
}

type paramWrite struct {
	root string // canonical receiver expression, e.g. "c.Weight"
	expr ast.Expr
	pos  token.Pos
}

func runMarkUpdated(p *Pass) {
	info := p.Pkg.Info
	forEachFuncDecl(p.Pkg, func(fd *ast.FuncDecl) {
		var writes, derived []paramWrite
		marks := map[string][]token.Pos{}
		versionRead := map[string]bool{}
		constructed := map[types.Object]bool{}

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if sel, ok := dataSelector(info, lhs); ok {
						writes = append(writes, paramWrite{rootString(sel), sel.X, lhs.Pos()})
					}
					// Track freshly-constructed locals for the exemption.
					if i < len(n.Rhs) {
						if id := identOf(lhs); id != nil && isCompositeLit(n.Rhs[i]) {
							if obj := info.Defs[id]; obj != nil {
								constructed[obj] = true
							} else if obj := info.Uses[id]; obj != nil && n.Tok == token.ASSIGN {
								constructed[obj] = true
							}
						}
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := dataSelector(info, n.X); ok {
					writes = append(writes, paramWrite{rootString(sel), sel.X, n.X.Pos()})
				}
			case *ast.CallExpr:
				if sel, ok := mutatingCallTarget(info, n); ok {
					writes = append(writes, paramWrite{rootString(sel), sel.X, n.Pos()})
				}
				if sel, ok := derivedFromData(info, n); ok {
					derived = append(derived, paramWrite{rootString(sel), sel.X, n.Pos()})
				}
				if recv, ok := paramMethodCall(info, n, "MarkUpdated"); ok {
					key := types.ExprString(recv)
					marks[key] = append(marks[key], n.Pos())
				}
				if recv, ok := paramMethodCall(info, n, "Version"); ok {
					versionRead[types.ExprString(recv)] = true
				}
			}
			return true
		})

		for _, w := range writes {
			if covered(marks[w.root], w.pos) {
				continue
			}
			if base := baseIdent(w.expr); base != nil {
				obj := info.Uses[base]
				if obj == nil {
					obj = info.Defs[base]
				}
				if constructed[obj] {
					continue // construction: the Param has never escaped
				}
			}
			p.Reportf(w.pos,
				"write to %s.Data is not followed by %s.MarkUpdated() in %s: caches keyed on the Param version (rotated conv kernels) would serve stale data",
				w.root, w.root, fd.Name.Name)
		}
		for _, d := range derived {
			if !versionRead[d.root] {
				p.Reportf(d.pos,
					"%s.Data is rotated into a tensor.RotatedWeights without reading %s.Version() in %s: a cached copy would outlive the weights it was built from",
					d.root, d.root, fd.Name.Name)
			}
		}
	})
}

// covered reports whether any mark position follows pos.
func covered(marks []token.Pos, pos token.Pos) bool {
	for _, m := range marks {
		if m > pos {
			return true
		}
	}
	return false
}

// dataSelector unwraps an assignment target down to a `x.Data` selector on
// an nn.Param, descending through indexing: p.Data[i], p.Data[i:j], and
// the slice-header rebind p.Data itself all resolve to the same selector.
func dataSelector(info *types.Info, e ast.Expr) (*ast.SelectorExpr, bool) {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.SelectorExpr:
			if v.Sel.Name == "Data" && namedIs(info.Types[v.X].Type, "nn", "Param") {
				return v, true
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

// mutatingCallTarget reports a call that writes through a Param's Data:
// the builtins copy/clear with Data as destination, or a known-mutating
// function receiving Data at its mutated argument position.
func mutatingCallTarget(info *types.Info, call *ast.CallExpr) (*ast.SelectorExpr, bool) {
	argIdx := -1
	switch {
	case isBuiltin(info, call, "copy"), isBuiltin(info, call, "clear"):
		argIdx = 0
	default:
		if fn := calleeFunc(info, call); fn != nil {
			if idx, ok := knownMutators[fn.Name()]; ok {
				argIdx = idx
			}
		}
	}
	if argIdx < 0 || argIdx >= len(call.Args) {
		return nil, false
	}
	return dataSelector(info, call.Args[argIdx])
}

// derivedFromData reports a call that takes a Param's Data and returns a
// tensor.RotatedWeights.
func derivedFromData(info *types.Info, call *ast.CallExpr) (*ast.SelectorExpr, bool) {
	if !namedIs(info.Types[call].Type, "tensor", "RotatedWeights") {
		return nil, false
	}
	for _, arg := range call.Args {
		if sel, ok := dataSelector(info, arg); ok {
			return sel, true
		}
	}
	return nil, false
}

// paramMethodCall matches recv.<method>() on an nn.Param and returns the
// receiver expression.
func paramMethodCall(info *types.Info, call *ast.CallExpr, method string) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, false
	}
	if !namedIs(info.Types[sel.X].Type, "nn", "Param") {
		return nil, false
	}
	return sel.X, true
}

// rootString canonicalizes the Param expression owning a Data selector.
func rootString(sel *ast.SelectorExpr) string { return types.ExprString(sel.X) }

// isCompositeLit reports whether e is a composite literal, possibly
// behind &.
func isCompositeLit(e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}
