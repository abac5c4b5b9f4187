package lint_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"simdram/internal/lint"
)

// loadFixture loads one testdata package through the real loader.
func loadFixture(t *testing.T, name string) *lint.Package {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// wantMarkers scans a fixture directory for `// want "substr"`
// comments and returns file:line -> expected message substring.
func wantMarkers(t *testing.T, pkg *lint.Package) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(pkg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(pkg.Dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				out[fmt.Sprintf("%s:%d", path, line)] = m[1]
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkFixture runs the analyzers over a fixture and matches findings
// against its want markers exactly: every marked line must produce a
// finding containing the marker's substring, and every finding must
// land on a marked line.
func checkFixture(t *testing.T, name string, analyzers []*lint.Analyzer) {
	t.Helper()
	pkg := loadFixture(t, name)
	findings, err := lint.Run(pkg, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants := wantMarkers(t, pkg)
	matched := map[string]bool{}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		want, ok := wants[key]
		if !ok {
			t.Errorf("unexpected finding on unmarked line: %s", f)
			continue
		}
		if strings.Contains(f.Message, want) {
			matched[key] = true
		}
	}
	for key, want := range wants {
		if !matched[key] {
			t.Errorf("%s: no finding containing %q (got %v)", key, want, findings)
		}
	}
}

// TestZeroAllocSeededViolations is the linter's mutation harness:
// every seeded allocation construct in the fixture must be flagged on
// its exact line.
func TestZeroAllocSeededViolations(t *testing.T) {
	checkFixture(t, "zeroallocbad", []*lint.Analyzer{lint.ZeroAlloc})
}

// TestZeroAllocCompliantPath pins the false-positive budget: a hot
// path written to the contract — including //simdram:prealloc and
// //simdram:coldpath suppressions and fmt-feeding-panic — yields zero
// findings.
func TestZeroAllocCompliantPath(t *testing.T) {
	pkg := loadFixture(t, "zeroallocok")
	findings, err := lint.Run(pkg, []*lint.Analyzer{lint.ZeroAlloc})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("compliant fixture flagged: %v", findings)
	}
}

// TestObsNilSeededViolations covers both halves of the nil contract:
// the unguarded nilsafe method and the unguarded *obs.Trace field
// reads are flagged; the guarded, delegating, unexported, and
// method-only shapes are not.
func TestObsNilSeededViolations(t *testing.T) {
	checkFixture(t, "obsnilbad", []*lint.Analyzer{lint.ObsNil})
}

// TestTestOnlySeededViolations covers the testonly analyzer over a
// small tree: a function, a method and a const only tests use, and
// //simdram:testapi with no reason or on a used declaration, are
// flagged; declarations used by a command, by a nested module or
// through an interface, and annotated ones, are not.
func TestTestOnlySeededViolations(t *testing.T) {
	checkFixture(t, "testonly/internal/lib", []*lint.Analyzer{lint.TestOnly})
}

// TestTestOnlySkipsTestPackages pins that a package only tests import
// is test code: its exports are not flagged.
func TestTestOnlySkipsTestPackages(t *testing.T) {
	checkFixture(t, "testonly/internal/onlytests", []*lint.Analyzer{lint.TestOnly})
}

// TestRepoHotPathsClean runs every analyzer over every package of the
// module, the nested benchmark module included, as CI's
// `simdramlint ./...` does — the linters gate CI, so HEAD must be
// clean.
func TestRepoHotPathsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the production packages from source")
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := lint.PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if lint.IsNoGo(err) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		findings, err := lint.Run(pkg, lint.All())
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, f := range findings {
			t.Errorf("%s: %s", dir, f)
		}
	}
}
