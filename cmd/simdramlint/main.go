// Command simdramlint runs the repo's custom static analyses — the
// //simdram:zeroalloc hot-path allocation checker, the
// //simdram:nilsafe observability nil-contract checker, and the
// testonly checker, which reports exported internal/ declarations only
// tests use (exempt with //simdram:testapi <reason>) — over
// module-local packages. It loads and type-checks everything from
// source with only the standard library, so it runs in the same
// offline sandbox as the tests.
//
// Usage:
//
//	go run ./cmd/simdramlint [packages]
//
// Package arguments are directories, optionally ending in /... to
// recurse (default ./...); testonly indexes the whole tree whatever
// the arguments. Findings print as
// path:line:col: [analyzer] message; any finding exits nonzero.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"simdram/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simdramlint [dir|dir/...]...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "simdramlint:", err)
		os.Exit(2)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	dirs, err := expand(args)
	if err != nil {
		return err
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return err
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		return err
	}
	var findings []lint.Finding
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if lint.IsNoGo(err) {
			continue
		}
		if err != nil {
			return err
		}
		fs, err := lint.Run(pkg, lint.All())
		if err != nil {
			return err
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
	return nil
}

// expand resolves the directory arguments, recursing under /...
// patterns with lint.PackageDirs.
func expand(args []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	for _, arg := range args {
		pattern, recursive := strings.CutSuffix(arg, "/...")
		if pattern == "" {
			pattern = "."
		}
		found := []string{pattern}
		if recursive {
			var err error
			if found, err = lint.PackageDirs(pattern); err != nil {
				return nil, err
			}
		}
		for _, dir := range found {
			if clean := filepath.Clean(dir); !seen[clean] {
				seen[clean] = true
				dirs = append(dirs, clean)
			}
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
