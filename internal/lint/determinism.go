package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// determinism guards the bit-identical-results contract of the kernel
// packages (internal/tensor, internal/nn, internal/parallel): outputs must
// not depend on scheduling, iteration order, the clock, or a process-wide
// RNG. In those packages it flags:
//
//   - `range` over a map, unless the loop only collects keys for sorting
//     (the sanctioned `keys = append(keys, k)` single-statement body —
//     order-insensitive by construction);
//   - time.Now / time.Since outside profiler-gated code (an enclosing if
//     whose condition names a prof* identifier, or the profiler's own
//     file) — with internal/telemetry as the one sanctioned carve-out:
//     that package owns the trace clock so instrumented packages never
//     read it themselves, and it may not perturb outputs by contract
//     (pinned by the tracing-parity tests);
//   - package-global math/rand calls (process-shared source; thread a
//     *rand.Rand instead);
//   - `go` statements outside internal/parallel — the worker pool is the
//     only sanctioned goroutine owner in kernel code.
//
// Other packages are free to use all four (serving needs real goroutines
// and wall clocks); the contract binds the kernels that every numeric
// guarantee is built on.
var determinism = &Analyzer{
	Name: "determinism",
	Doc:  "kernel packages must not depend on map order, the clock, global rand, or unmanaged goroutines",
	Run:  runDeterminism,
}

// determinismScope lists the import-path fragments the analyzer binds to.
// internal/data is included because stream content carries the same
// bit-identical contract as the kernels: a seeded generator or scenario
// schedule must never depend on map order, the clock, or shared rand.
// internal/telemetry is included so its exposition stays deterministic
// (no ranged-over maps, no shared rand) — but clock reads are sanctioned
// there, and only there: telemetry owns the trace clock on behalf of the
// instrumented packages. internal/serve/lifecycle is included because the
// stream cursor is a pure transition function — the reference model the
// serving shell is checked against — so "no clocks, no goroutines, no map
// order" is its contract too.
var determinismScope = []string{"internal/tensor", "internal/nn", "internal/parallel", "internal/data", "internal/telemetry", "internal/serve/lifecycle"}

func runDeterminism(p *Pass) {
	path := p.Pkg.ImportPath
	scoped := false
	for _, s := range determinismScope {
		if strings.Contains(path, s) {
			scoped = true
			break
		}
	}
	if !scoped {
		return
	}
	inPool := strings.Contains(path, "internal/parallel")
	// The telemetry carve-out: clock reads are the package's job (span
	// timestamps), so only the map/rand/goroutine rules bind there.
	telemetryPkg := strings.Contains(path, "internal/telemetry")
	info := p.Pkg.Info

	for _, file := range p.Pkg.Files {
		profFile := strings.Contains(filepath.Base(p.Pkg.Fset.Position(file.Pos()).Filename), "profiler")
		gated := profGatedSpans(file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := info.Types[n.X].Type; t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap && !isKeyCollectLoop(n) {
						p.Reportf(n.Pos(),
							"map iteration order is nondeterministic: collect the keys, sort them, and iterate the sorted slice")
					}
				}
			case *ast.CallExpr:
				if isPkgFunc(info, n, "time", "Now", "Since") && !profFile && !telemetryPkg && !within(gated, n) {
					p.Reportf(n.Pos(),
						"clock read outside profiler-gated code makes kernel behavior time-dependent: gate it behind a prof* condition or justify it")
				}
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if id := identOf(sel.X); id != nil {
						if pn, ok := info.Uses[id].(*types.PkgName); ok &&
							strings.HasPrefix(pn.Imported().Path(), "math/rand") &&
							!isRandConstructor(sel.Sel.Name) {
							p.Reportf(n.Pos(),
								"global math/rand source is process-shared and order-dependent: thread an explicit *rand.Rand")
						}
					}
				}
			case *ast.GoStmt:
				if !inPool {
					p.Reportf(n.Pos(),
						"bare go statement bypasses the worker pool's determinism and oversubscription guarantees: schedule through internal/parallel")
				}
			}
			return true
		})
	}
}

// isRandConstructor reports whether name is a math/rand function that
// *builds* an explicit source rather than drawing from the process-global
// one. rand.New(rand.NewSource(seed)) is the repository's sanctioned
// seeded-rng idiom — the resulting *rand.Rand is threaded explicitly, so
// constructing it cannot leak shared-source state into results.
func isRandConstructor(name string) bool {
	switch name {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return true
	}
	return false
}

// isKeyCollectLoop recognizes the sanctioned map-range shape: key-only
// iteration whose whole body is one `keys = append(keys, k)` statement.
// Appending every key and sorting afterwards is permutation-invariant, so
// iteration order cannot leak into results.
func isKeyCollectLoop(r *ast.RangeStmt) bool {
	if r.Key == nil {
		return true // `for range m` uses no iteration values at all
	}
	if r.Value != nil || len(r.Body.List) != 1 {
		return false
	}
	assign, ok := r.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
		return false
	}
	keyID := identOf(r.Key)
	if keyID == nil || len(call.Args) != 2 {
		return false
	}
	argID := identOf(call.Args[1])
	return argID != nil && argID.Name == keyID.Name
}

// span is a source interval.
type span struct{ lo, hi ast.Node }

// profGatedSpans collects the bodies of if statements whose condition
// mentions an identifier containing "prof" — the repository's idiom for
// code that only runs while the profiler listens.
func profGatedSpans(file *ast.File) []span {
	var spans []span
	ast.Inspect(file, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		mentionsProf := false
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			if id, ok := c.(*ast.Ident); ok &&
				strings.Contains(strings.ToLower(id.Name), "prof") {
				mentionsProf = true
			}
			return true
		})
		if mentionsProf {
			spans = append(spans, span{ifs.Body, ifs.Body})
			if ifs.Else != nil {
				spans = append(spans, span{ifs.Else, ifs.Else})
			}
		}
		return true
	})
	return spans
}

func within(spans []span, n ast.Node) bool {
	for _, s := range spans {
		if s.lo.Pos() <= n.Pos() && n.End() <= s.hi.End() {
			return true
		}
	}
	return false
}
