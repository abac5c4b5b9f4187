// Package lint is the repo's in-tree static-analysis framework: a
// small analyzer API in the spirit of go/analysis, plus a loader that
// parses and type-checks module-local packages using only the
// standard library — so the hot-path linters run in the same
// offline sandbox as the tests, with no external toolchain.
//
// Three analyzers ship with it:
//
//   - zeroalloc enforces the //simdram:zeroalloc annotation: functions
//     on the bind-once/run-many hot path must not contain allocation
//     constructs (make/new, growing append, escaping closures and
//     composite literals, fmt calls, string concatenation, interface
//     boxing, go/defer). Line-level suppressions //simdram:prealloc
//     (append into preallocated capacity) and //simdram:coldpath
//     (failure/shutdown paths) document the audited exceptions.
//
//   - obsnil enforces the observability nil contract: types annotated
//     //simdram:nilsafe must guard every exported pointer method
//     against a nil receiver (or delegate to one that does), and code
//     outside the obs package may touch *obs.Trace fields only inside
//     an explicit nil guard — methods are nil-safe, fields are not.
//
//   - testonly reports exported declarations under internal/ that no
//     production code uses, so test-only API cannot accumulate; an
//     audited exception carries //simdram:testapi <reason>.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one reported violation, located at a source position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns every analyzer the simdramlint multichecker runs.
func All() []*Analyzer { return []*Analyzer{ZeroAlloc, ObsNil, TestOnly} }

// Pass carries one analyzer's view of one loaded package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	loader     *Loader // the loader that built the package, for whole-tree analyzers
	analyzer   string
	findings   *[]Finding
	suppressed map[string]map[int]bool // filename -> lines carrying a suppression
}

// Report records a finding at pos unless the line (or the line above
// it) carries a //simdram:prealloc or //simdram:coldpath suppression.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if lines := p.suppressed[position.Filename]; lines[position.Line] || lines[position.Line-1] {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:      position,
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressionMarkers are the line-level escape hatches; each names the
// audited reason an allocation construct is allowed to stay.
var suppressionMarkers = []string{"//simdram:prealloc", "//simdram:coldpath"}

// buildSuppressions maps, per file, the lines whose comments carry a
// suppression marker. A marker suppresses findings on its own line and
// on the line directly below it (comment-above style).
func buildSuppressions(pkg *Package) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				marked := false
				for _, m := range suppressionMarkers {
					if strings.HasPrefix(text, m) {
						marked = true
						break
					}
				}
				if !marked {
					continue
				}
				position := pkg.Fset.Position(c.Pos())
				lines := out[position.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					out[position.Filename] = lines
				}
				lines[position.Line] = true
			}
		}
	}
	return out
}

// Run executes the analyzers over one loaded package and returns the
// findings sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	supp := buildSuppressions(pkg)
	for _, a := range analyzers {
		pass := &Pass{
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			loader:     pkg.loader,
			analyzer:   a.Name,
			findings:   &findings,
			suppressed: supp,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return findings, nil
}

// hasMarker reports whether a doc comment carries the given directive
// line (e.g. "//simdram:zeroalloc").
func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// isBuiltin reports whether the call target is the named builtin.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// pkgOfCall returns the import path when the call target is a
// package-qualified function (pkg.Fn), "" otherwise.
func pkgOfCall(info *types.Info, fun ast.Expr) string {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}
