package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// cloneSafe guards the deep-copy contract behind replica-based serving:
// Clone/CloneLayer methods (nn.Cloner implementers and friends) must not
// hand the clone direct references to the receiver's slice or map fields —
// a shared backing array lets one replica's adaptation corrupt another's.
// Flagged shapes:
//
//   - a composite-literal field or assignment whose value is a selector
//     chain rooted at the receiver with slice or map type
//     (RunningMean: b.RunningMean);
//   - a whole-struct copy of the receiver (cp := *m) when the struct has
//     slice or map fields, which aliases all of them at once — or of one of
//     its struct-valued fields (a table held by value), which aliases that
//     field's slices the same way;
//   - an nn.Param literal that leaves a field unnamed: Param carries a flag
//     (Frozen) beside its buffers, and a clone that drops it by omission
//     changes how the replica backpropagates. Naming every field makes
//     carrying or resetting each one a visible decision;
//   - a *tensor.Tensor taken from the receiver (in: b.in): layers keep
//     references to the activations their Backward reads — BatchNorm2d its
//     input and fused output, ReLU its output, Conv2d and Linear their
//     input — and a clone that carried one over would backpropagate through
//     the original's forward. A clone's saved tensors start empty;
//   - a *tensor.Arena reached from the receiver (arena: m.arena, or a struct
//     field holding one): an arena hands one model's activations out on one
//     goroutine, and two replicas drawing from it would write each other's
//     buffers. A whole-struct copy of a receiver that has such a field
//     (cp := *m) must set the field on the copy, by name, in the same
//     method — the clone's first pass makes its own.
//
// Other pointer fields are not flagged: the analyzer's job is the
// mutable-backing-array hazard, not pointer identity.
var cloneSafe = &Analyzer{
	Name: "clonesafe",
	Doc:  "Clone/CloneLayer methods must not shallowly alias the receiver's slice/map fields",
	Run:  runCloneSafe,
}

func runCloneSafe(p *Pass) {
	info := p.Pkg.Info
	forEachFuncDecl(p.Pkg, func(fd *ast.FuncDecl) {
		name := fd.Name.Name
		if fd.Recv == nil || (name != "Clone" && name != "CloneLayer" && name != "clone") {
			return
		}
		if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
			return
		}
		recvID := fd.Recv.List[0].Names[0]
		recvObj := info.Defs[recvID]
		if recvObj == nil {
			return
		}

		// check examines a value the clone is built from; lhs is what it
		// is assigned to, nil inside a composite literal.
		check := func(v, lhs ast.Expr) {
			v = ast.Unparen(v)
			if star, ok := v.(*ast.StarExpr); ok {
				if id := identOf(star.X); id != nil && info.Uses[id] == recvObj {
					if fields := sliceOrMapFields(info.Types[v].Type); len(fields) > 0 {
						p.Reportf(v.Pos(),
							"shallow struct copy of receiver %s aliases its %s field(s): deep-copy them explicitly",
							recvID.Name, strings.Join(fields, ", "))
					}
					if kept := unsetFields(info, fd.Body, lhs, arenaFields(info.Types[v].Type)); len(kept) > 0 {
						p.Reportf(v.Pos(),
							"shallow struct copy of receiver %s shares its arena (%s) with the clone: set it on the copy by name",
							recvID.Name, strings.Join(kept, ", "))
					}
				}
				return
			}
			sel, ok := v.(*ast.SelectorExpr)
			if !ok {
				return
			}
			base := baseIdent(sel)
			if base == nil || info.Uses[base] != recvObj {
				return
			}
			t := info.Types[v].Type
			if t == nil {
				return
			}
			if _, isPtr := t.(*types.Pointer); isPtr && namedIs(t, "tensor", "Tensor") {
				p.Reportf(v.Pos(),
					"clone carries over the receiver's saved tensor %s: a clone's saved activations start empty",
					types.ExprString(v))
				return
			}
			if isArenaPtr(t) || len(arenaFields(t)) > 0 {
				p.Reportf(v.Pos(),
					"clone shares the receiver's arena through %s: an arena serves one model, a clone starts without one",
					types.ExprString(v))
				return
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				p.Reportf(v.Pos(),
					"clone aliases the receiver's %s (%s): copy the backing storage (append/maps.Clone) or justify the share",
					types.ExprString(v), t)
			case *types.Struct:
				if fields := sliceOrMapFields(t); len(fields) > 0 {
					p.Reportf(v.Pos(),
						"shallow struct copy of the receiver's %s aliases its %s field(s): deep-copy them explicitly",
						types.ExprString(v), strings.Join(fields, ", "))
				}
			}
		}

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if missing := unnamedParamFields(info, n); len(missing) > 0 {
					p.Reportf(n.Pos(),
						"clone's nn.Param literal omits %s: name every field so each is visibly carried or reset",
						strings.Join(missing, ", "))
				}
			case *ast.KeyValueExpr:
				check(n.Value, nil)
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					var lhs ast.Expr
					if len(n.Lhs) == len(n.Rhs) {
						lhs = n.Lhs[i]
					}
					check(rhs, lhs)
				}
			}
			return true
		})
	})
}

// unnamedParamFields lists the fields a keyed nn.Param composite literal
// leaves out (a positional literal names them all by construction).
func unnamedParamFields(info *types.Info, lit *ast.CompositeLit) []string {
	t := info.Types[lit].Type
	if !namedIs(t, "nn", "Param") {
		return nil
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	named := map[string]bool{}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			return nil
		}
		if id := identOf(kv.Key); id != nil {
			named[id.Name] = true
		}
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); !named[f.Name()] {
			out = append(out, f.Name())
		}
	}
	return out
}

// sliceOrMapFields lists the struct fields with slice or map type.
func sliceOrMapFields(t types.Type) []string {
	if t == nil {
		return nil
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch f.Type().Underlying().(type) {
		case *types.Slice, *types.Map:
			out = append(out, f.Name())
		}
	}
	return out
}

// isArenaPtr reports whether t is *tensor.Arena.
func isArenaPtr(t types.Type) bool {
	_, isPtr := t.(*types.Pointer)
	return isPtr && namedIs(t, "tensor", "Arena")
}

// arenaFields lists the fields of struct t through which a copy of it
// reaches the original's arena: a *tensor.Arena, or a struct held by value
// that has one.
func arenaFields(t types.Type) []string {
	if t == nil {
		return nil
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); isArenaPtr(f.Type()) || len(arenaFields(f.Type())) > 0 {
			out = append(out, f.Name())
		}
	}
	return out
}

// unsetFields returns those of fields that body never assigns on the
// variable lhs names (cp.field = …).
func unsetFields(info *types.Info, body *ast.BlockStmt, lhs ast.Expr, fields []string) []string {
	if len(fields) == 0 {
		return nil
	}
	set := map[string]bool{}
	if id := identOf(lhs); id != nil {
		obj := info.ObjectOf(id)
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, l := range as.Lhs {
				if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok {
					if x := identOf(sel.X); x != nil && info.ObjectOf(x) == obj {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}
	var out []string
	for _, f := range fields {
		if !set[f] {
			out = append(out, f)
		}
	}
	return out
}
