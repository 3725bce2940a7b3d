// Package lint is the repository's static-analysis framework: a small,
// dependency-free analyzer harness (go/parser + go/types; package
// discovery via `go list -json`) plus the three repo-specific analyzers
// that mechanically enforce the correctness contracts the test suites
// can only spot-check:
//
//   - determinism: internal/tensor, internal/nn and internal/parallel must
//     not iterate maps (except to collect keys for sorting), read the
//     clock outside profiler-gated code, use the global math/rand source,
//     or start goroutines outside the worker pool.
//   - nestedpar: parallel.For/ForGrain must not be called syntactically
//     inside another parallel loop body literal.
//   - panicsafe: every goroutine started in internal/serve must defer a
//     recover barrier, so a replica panic is quarantined instead of
//     killing the serving process.
//
// The analyzers are syntactic-plus-types: they prove the idioms the
// repository standardizes on, not arbitrary dataflow. A parallel loop
// nested through a callee, say, is outside their reach, and code that
// trips one for a reason carries an inline-justified suppression:
//
//	//ttalint:ok <analyzer> <justification>
//
// placed at the end of the offending line or on a line by itself directly
// above it. A suppression without a justification, naming an unknown
// analyzer, or matching no finding is itself reported, so the tree can
// hold the "zero unexplained suppressions" bar mechanically.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All lists every analyzer in the suite, in report order.
func All() []*Analyzer {
	return []*Analyzer{determinism, nestedPar, panicSafe}
}

// ByName resolves a comma-separated analyzer selection against All.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	index := map[string]*Analyzer{}
	for _, a := range All() {
		index[a.Name] = a
	}
	var sel []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a := index[strings.TrimSpace(n)]
		if a == nil {
			return nil, fmt.Errorf("lint: unknown analyzer %q", strings.TrimSpace(n))
		}
		sel = append(sel, a)
	}
	return sel, nil
}

// suppressMarker introduces an inline suppression comment.
const suppressMarker = "//ttalint:ok"

// suppression is one parsed //ttalint:ok comment. It covers its own line
// (end-of-line form) and the following line (standalone form).
type suppression struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

func collectSuppressions(pkg *Package) []*suppression {
	var out []*suppression
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, suppressMarker) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, suppressMarker))
				name, reason, _ := strings.Cut(rest, " ")
				out = append(out, &suppression{
					pos:      pkg.Fset.Position(c.Pos()),
					analyzer: name,
					reason:   strings.TrimSpace(reason),
				})
			}
		}
	}
	return out
}

// Run executes the analyzers over every target package, applies the
// suppressions, and returns the surviving findings plus any suppression-
// hygiene findings (missing justification, unknown analyzer, stale),
// sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}

	var supp []*suppression
	for _, pkg := range pkgs {
		if !pkg.Target {
			continue
		}
		supp = append(supp, collectSuppressions(pkg)...)
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, s := range supp {
			if s.analyzer == d.Analyzer && s.pos.Filename == d.Pos.Filename &&
				(s.pos.Line == d.Pos.Line || s.pos.Line+1 == d.Pos.Line) {
				s.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	diags = kept

	for _, s := range supp {
		switch {
		case !known[s.analyzer]:
			diags = append(diags, Diagnostic{Analyzer: "suppress", Pos: s.pos,
				Message: fmt.Sprintf("suppression names unknown analyzer %q", s.analyzer)})
		case s.reason == "":
			diags = append(diags, Diagnostic{Analyzer: "suppress", Pos: s.pos,
				Message: fmt.Sprintf("suppression needs a justification: %s %s <why>", suppressMarker, s.analyzer)})
		case !s.used && ran[s.analyzer]:
			diags = append(diags, Diagnostic{Analyzer: "suppress", Pos: s.pos,
				Message: fmt.Sprintf("stale suppression: no %s finding on this or the next line", s.analyzer)})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}

// forEachFuncDecl visits every function declaration with a body.
func forEachFuncDecl(pkg *Package, fn func(*ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
