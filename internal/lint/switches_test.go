package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestProcessSwitchesArePinned makes the next process-wide switch a visible
// diff. Every non-test Go file of the module is parsed (all build tags):
// the environment variables the program reads are exactly wantEnv, and
// tensor.SetPacked — the im2col oracle hook — is called from nowhere but
// tests and the benchmark.
func TestProcessSwitchesArePinned(t *testing.T) {
	wantEnv := []string{"EDGETTA_TRACE"}

	env := map[string]bool{}
	fset := token.NewFileSet()
	root := filepath.Join("..", "..") // this package sits two levels below go.mod
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name[0] == '.' || name[0] == '_' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		osName := importName(f, "os")
		inBench := strings.HasPrefix(path, filepath.Join(root, "bench")+string(filepath.Separator))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, fn := callee(call)
			switch {
			case fn == "SetPacked" && !inBench:
				t.Errorf("%s: SetPacked called outside tests and bench/", fset.Position(call.Pos()))
			case pkg == osName && osName != "" && (fn == "Getenv" || fn == "LookupEnv"):
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok {
					t.Errorf("%s: environment key is not a string literal", fset.Position(call.Pos()))
					break
				}
				key, _ := strconv.Unquote(lit.Value)
				env[key] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range env {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, wantEnv) {
		t.Errorf("environment variables read: %v, want exactly %v", got, wantEnv)
	}
}

// importName is the name the file refers to the import path by, or "".
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if imp.Path.Value != strconv.Quote(path) {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path
	}
	return ""
}

// callee splits a call's function into qualifier and name: ("os", "Getenv")
// for os.Getenv(...), ("", "SetPacked") for a bare SetPacked(...).
func callee(call *ast.CallExpr) (pkg, fn string) {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return "", f.Name
	case *ast.SelectorExpr:
		if x, ok := f.X.(*ast.Ident); ok {
			return x.Name, f.Sel.Name
		}
		return "", f.Sel.Name
	}
	return "", ""
}
