package lint

import (
	"regexp"
	"testing"
)

// wantRe matches the golden expectation markers in testdata comments:
// `// want "re"` expects a finding on its own line; `// wantup "re"` on
// the line above — for diagnostics positioned on comment-only lines, like
// suppression hygiene, where the marker cannot share the line.
var wantRe = regexp.MustCompile(`// want(up)? "([^"]+)"`)

type wantMark struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func collectWants(t *testing.T, pkgs []*Package) []*wantMark {
	t.Helper()
	var wants []*wantMark
	for _, pkg := range pkgs {
		if !pkg.Target {
			continue
		}
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[2])
						if err != nil {
							t.Fatalf("bad want regexp %q: %v", m[2], err)
						}
						pos := pkg.Fset.Position(c.Pos())
						line := pos.Line
						if m[1] == "up" {
							line--
						}
						wants = append(wants, &wantMark{file: pos.Filename, line: line, re: re})
					}
				}
			}
		}
	}
	return wants
}

// runGolden loads one analyzer's testdata package and checks the produced
// diagnostics against its want markers in both directions: every
// diagnostic must be expected, every expectation must fire.
func runGolden(t *testing.T, analyzer, pattern string) {
	t.Helper()
	pkgs, err := Load(pattern)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := ByName(analyzer)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, sel)
	wants := collectWants(t, pkgs)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no %s finding matched %q", w.file, w.line, analyzer, w.re)
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, "determinism", "./testdata/src/determinism/internal/tensor")
}

// TestDeterminismTelemetryCarveout pins the telemetry clock carve-out:
// bare time.Now/Since produce no finding in internal/telemetry, while the
// map-order and global-rand rules still fire there.
func TestDeterminismTelemetryCarveout(t *testing.T) {
	runGolden(t, "determinism", "./testdata/src/determinism/internal/telemetry")
}

// TestNestedParGolden also carries the suppression-hygiene cases (testdata
// suppress.go), which are the framework's, not the analyzer's.
func TestNestedParGolden(t *testing.T) {
	runGolden(t, "nestedpar", "./testdata/src/nestedpar")
}

// TestPanicSafeGolden covers the scoped package and, via the ... pattern,
// an out-of-scope package whose bare goroutine must draw no finding.
func TestPanicSafeGolden(t *testing.T) {
	runGolden(t, "panicsafe", "./testdata/src/panicsafe/...")
}

// TestRepoTreeClean is the driver's exit-0 guarantee as a test: the full
// analyzer suite over the real module must produce zero findings — which,
// since unjustified and stale suppressions are findings too, also means
// zero unexplained suppressions.
func TestRepoTreeClean(t *testing.T) {
	pkgs, err := Load("edgetta/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("finding on the real tree: %s", d)
	}
}
